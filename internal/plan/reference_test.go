package plan

import (
	"time"

	"gopilot/internal/dist"
)

// refPlanner is the linear planner the TickPlanner replaced, kept only as
// the reference the equivalence tests replay histories through. Every
// tick walks the whole queue and rebuilds it, and nextWake is the minimum
// over every gated unit the walk passes. It shares Backoff, the retry
// stream layout and the Executor contract with Planner, so the same
// history must produce the same binds, wakes and retry verdicts.
type refPlanner struct {
	policy     PolicyFunc
	backoff    Backoff
	retryRoot  *dist.Stream
	units      map[string]*refRec
	queue      []*refRec
	watermarks map[string]*Watermark
	backends   []string
}

type refRec struct {
	spec      UnitSpec
	retry     *dist.Stream
	queued    bool
	forgotten bool
	bound     bool
	backend   string
	charges   int
	retryAt   time.Time
}

func newRefPlanner(cfg Config) *refPlanner {
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("plan")
	}
	if cfg.Policy == nil {
		cfg.Policy = func(u UnitSpec, cands []Candidate) string { return cands[0].ID }
	}
	return &refPlanner{
		policy:     cfg.Policy,
		backoff:    cfg.Backoff.withDefaults(),
		retryRoot:  cfg.Stream.Named("retry"),
		units:      make(map[string]*refRec),
		watermarks: make(map[string]*Watermark),
	}
}

func (p *refPlanner) Admit(spec UnitSpec) {
	if _, ok := p.units[spec.ID]; ok {
		return
	}
	r := &refRec{spec: spec, retry: p.retryRoot.SplitLabel(spec.Ordinal), queued: true}
	p.units[spec.ID] = r
	p.queue = append(p.queue, r)
}

func (p *refPlanner) Forget(id string) {
	r, ok := p.units[id]
	if !ok {
		return
	}
	if r.bound {
		p.watermarks[r.backend].InFlight--
	}
	p.drop(r)
}

func (p *refPlanner) drop(r *refRec) {
	r.forgotten = true
	delete(p.units, r.spec.ID)
}

func (p *refPlanner) Plan(now time.Time, ex Executor) (nextWake time.Time) {
	free := ex.MaxFree()
	keep := p.queue[:0]
	for _, r := range p.queue {
		if r.forgotten || !r.queued || r.bound {
			continue
		}
		if !r.retryAt.IsZero() && r.retryAt.After(now) {
			keep = append(keep, r)
			if nextWake.IsZero() || r.retryAt.Before(nextWake) {
				nextWake = r.retryAt
			}
			continue
		}
		if r.spec.Cores > free {
			keep = append(keep, r)
			continue
		}
		cands := ex.Candidates(r.spec)
		if len(cands) == 0 {
			keep = append(keep, r)
			continue
		}
		pilot := p.policy(r.spec, cands)
		if pilot == "" {
			keep = append(keep, r)
			continue
		}
		backend := ""
		for _, c := range cands {
			if c.ID == pilot {
				backend = c.Backend
				break
			}
		}
		r.queued = false
		r.bound = true
		r.backend = backend
		r.retryAt = time.Time{}
		p.noteDispatch(backend, now)
		ex.Bind(r.spec, pilot)
		free = ex.MaxFree()
	}
	clear(p.queue[len(keep):])
	p.queue = keep
	return nextWake
}

func (p *refPlanner) NoteFailure(id string, class FailureClass, now time.Time) Verdict {
	r, ok := p.units[id]
	if !ok {
		return Verdict{}
	}
	if r.bound {
		p.watermarks[r.backend].InFlight--
		r.bound = false
		r.backend = ""
	}
	r.charges++
	if r.charges > r.spec.MaxRetries {
		p.drop(r)
		return Verdict{Retry: false, Charges: r.charges}
	}
	d := p.backoff.Delay(r.charges-1, r.retry)
	r.retryAt = now.Add(d)
	if !r.queued {
		r.queued = true
		p.queue = append(p.queue, r)
	}
	return Verdict{Retry: true, Charges: r.charges, Delay: d, RetryAt: r.retryAt}
}

func (p *refPlanner) PendingLen() int {
	n := 0
	for _, r := range p.queue {
		if !r.forgotten && r.queued && !r.bound {
			n++
		}
	}
	return n
}

func (p *refPlanner) DrainPending() []string {
	var out []string
	for _, r := range p.queue {
		if r.forgotten || !r.queued || r.bound {
			continue
		}
		r.queued = false
		p.drop(r)
		out = append(out, r.spec.ID)
	}
	p.queue = nil
	return out
}

func (p *refPlanner) Watermarks() map[string]Watermark {
	out := make(map[string]Watermark, len(p.backends))
	for _, b := range p.backends {
		out[b] = *p.watermarks[b]
	}
	return out
}

func (p *refPlanner) noteDispatch(backend string, now time.Time) {
	w, ok := p.watermarks[backend]
	if !ok {
		w = &Watermark{}
		p.watermarks[backend] = w
		p.backends = append(p.backends, backend)
	}
	w.LastDispatch = now
	w.Dispatched++
	w.InFlight++
}

// headPending returns the first live unit in the reference's queue order,
// or "" when nothing is pending.
func (p *refPlanner) headPending() string {
	for _, r := range p.queue {
		if !r.forgotten && r.queued && !r.bound {
			return r.spec.ID
		}
	}
	return ""
}
