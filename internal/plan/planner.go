// Package plan is gopilot's control plane: one deep module that answers
// "what should be dispatched at this virtual instant?". The TickPlanner
// owns everything the answer depends on — the pending-unit queue, the
// per-backend dispatch watermarks, the placement policy (first-fit by
// default, with the manager's pluggable Scheduler wired in as a
// PolicyFunc), the overlap/guard checks that keep a unit from being
// dispatched twice, and the retry state (shared budget plus exponential
// backoff with deterministic jitter). The Reconciler in this package is
// the matching desired-vs-actual drift detector. core.Manager shrinks to
// the thin shell the P* model describes: it feeds the planner world
// snapshots and executes the decisions it gets back.
//
// The package is deliberately pure with respect to time and concurrency:
// it never reads a clock, never sleeps, and spawns no goroutines — every
// entry point takes the current virtual instant as an argument and is
// called under the manager's lock. That purity is what keeps same-seed
// runs bit-identical (and is enforced by seed-audit rule 6).
package plan

import (
	"math"
	"time"

	"gopilot/internal/dist"
)

// UnitSpec is the planner's view of a compute unit: just what placement
// and retry accounting need, so the package stays independent of core.
type UnitSpec struct {
	// ID is the manager-assigned unit id.
	ID string
	// Ordinal is the unit's submission ordinal; it labels the unit's slot
	// in the planner's "retry" stream subtree ("retry"/<ordinal>).
	Ordinal uint64
	// Cores is the unit's core requirement.
	Cores int
	// MaxRetries bounds the unit's shared failure budget: a unit may be
	// re-dispatched at most MaxRetries times after its first dispatch,
	// counting both pre-start strandings and mid-execution pilot losses.
	MaxRetries int
}

// Candidate is a pilot able to host a unit at the planning instant.
type Candidate struct {
	// ID is the pilot id.
	ID string
	// Backend identifies the backend/site hosting the pilot, the key of
	// the planner's dispatch watermarks.
	Backend string
	// FreeCores is the pilot's unreserved capacity right now.
	FreeCores int
}

// PolicyFunc picks a pilot for a unit from a non-empty candidate list,
// returning its ID, or "" to defer the unit to a later tick. The list is
// the Executor's Candidates result, valid only during the call.
type PolicyFunc func(u UnitSpec, candidates []Candidate) string

// Executor is the planner's hand back into the world. Plan calls it
// synchronously, one decision at a time, so each Bind is applied before
// the next unit's candidates are gathered — placement therefore sees the
// capacity consumed by earlier decisions of the same tick, exactly as
// the pre-planner dispatch loop did.
type Executor interface {
	// MaxFree bounds Candidates: for any unit u with u.Cores > MaxFree(),
	// Candidates(u) must return nothing. The tightest bound is the largest
	// FreeCores among the pilots Candidates could return right now
	// (math.MinInt when there are none). Plan skips Candidates for units
	// above the bound, so over-reporting only costs wasted queries, but
	// under-reporting would wrongly defer units that fit.
	MaxFree() int
	// Candidates returns the pilots able to host u at this instant, in
	// stable (pilot submission) order, with current free capacity. The
	// slice is valid only until the next Executor call: the executor may
	// reuse its backing array.
	Candidates(u UnitSpec) []Candidate
	// Bind reserves u onto the chosen pilot and hands it to the agent.
	Bind(u UnitSpec, pilotID string)
}

// FailureClass distinguishes how a dispatched unit came back.
type FailureClass int

// Failure classes. Both draw on the same MaxRetries budget; they are
// distinguished so reconciliation and stats can tell a pilot that died
// before pickup from one that died under a running unit.
const (
	// FailurePreStart: the pilot terminated before the agent picked the
	// unit up (stranded in the work queue).
	FailurePreStart FailureClass = iota
	// FailureExecution: the pilot was lost while the unit was staging or
	// executing.
	FailureExecution
)

// String implements fmt.Stringer.
func (c FailureClass) String() string {
	if c == FailurePreStart {
		return "pre-start"
	}
	return "execution"
}

// Verdict is the planner's ruling on a failed dispatch.
type Verdict struct {
	// Retry is true when budget remains and the unit was requeued.
	Retry bool
	// Charges is the total failures charged against the unit's budget so
	// far, including this one.
	Charges int
	// Delay is the backoff applied before the unit is eligible again
	// (zero when Retry is false).
	Delay time.Duration
	// RetryAt is the virtual instant the unit becomes dispatchable again.
	RetryAt time.Time
}

// Watermark tracks dispatch progress onto one backend.
type Watermark struct {
	// LastDispatch is the virtual instant of the most recent bind.
	LastDispatch time.Time
	// Dispatched counts binds onto the backend over the planner's life.
	Dispatched int
	// InFlight counts units currently bound and not yet returned.
	InFlight int
}

// Config configures a Planner.
type Config struct {
	// Stream is the planner's slot on the seeding spine; retry jitter for
	// unit <ordinal> is drawn from Stream.Named("retry")/<ordinal>, so a
	// retry never shifts any other component's draws. Defaults to
	// dist.Unseeded("plan").
	Stream *dist.Stream
	// Policy picks a pilot from the candidates; nil means first-fit
	// (first candidate wins, which with submission-order iteration is
	// FIFO with opportunistic backfill).
	Policy PolicyFunc
	// Backoff shapes the retry delay; zero fields take the defaults
	// documented on Backoff.
	Backoff Backoff
}

// unitRec is the planner's per-unit bookkeeping.
type unitRec struct {
	spec    UnitSpec
	retry   *dist.Stream // "retry"/<ordinal>: jitter draws, one per retry
	queued  bool         // pending: its live queue entry is queue[pos]
	pos     int          // index of the live queue entry while queued
	bound   bool         // dispatched and not yet returned
	backend string       // watermark key while bound
	charges int          // failures charged against MaxRetries
	retryAt time.Time    // eligibility gate while queued after a failure
}

// retryEntry is one retry-heap entry: r becomes eligible at at. It is
// valid only while r is queued and still carries that retryAt; a bind, a
// Forget or a later failure of r leaves it stale, and stale entries are
// discarded when they reach the top.
type retryEntry struct {
	at time.Time
	r  *unitRec
}

// Planner is the TickPlanner. It is not self-synchronizing: the owning
// manager serializes all calls (and the Executor callbacks they make)
// under its own lock, which is also what makes a planning tick atomic
// with respect to pilot arrivals and failures.
//
// The pending queue is a slice appended to at the tail. Entry i is live
// while queue[i].queued and queue[i].pos == i; a bind, a Forget or a
// requeue (which appends a fresh entry) leaves the old entry dead in
// place, and compact drops dead entries once they outnumber live ones.
// Every entry before head is dead or retry-gated until at least
// headUntil (zero when they are all dead), so ticks before that instant
// start their walk at head.
type Planner struct {
	policy     PolicyFunc
	backoff    Backoff
	retryRoot  *dist.Stream
	units      map[string]*unitRec
	queue      []*unitRec   // pending entries in arrival (re-)order
	head       int          // entries before head are dead or gated
	headUntil  time.Time    // earliest retryAt among live entries before head
	pending    int          // live queue entries
	cores      map[int]int  // pending units per Cores value
	minCores   int          // smallest Cores with cores[c] > 0; MaxInt if none
	retries    []retryEntry // min-heap by at
	watermarks map[string]*Watermark
	backends   []string // watermark keys in first-dispatch order
}

// New creates a Planner.
func New(cfg Config) *Planner {
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("plan")
	}
	if cfg.Policy == nil {
		cfg.Policy = func(u UnitSpec, cands []Candidate) string { return cands[0].ID }
	}
	return &Planner{
		policy:     cfg.Policy,
		backoff:    cfg.Backoff.withDefaults(),
		retryRoot:  cfg.Stream.Named("retry"),
		units:      make(map[string]*unitRec),
		cores:      make(map[int]int),
		minCores:   math.MaxInt,
		watermarks: make(map[string]*Watermark),
	}
}

// Admit registers a new unit and appends it to the pending queue.
func (p *Planner) Admit(spec UnitSpec) {
	if _, ok := p.units[spec.ID]; ok {
		return
	}
	r := &unitRec{spec: spec, retry: p.retryRoot.SplitLabel(spec.Ordinal)}
	p.units[spec.ID] = r
	p.enqueue(r)
}

// Forget removes a unit from the planner (terminal or canceled). Its
// queue entry, if any, is left dead in place.
func (p *Planner) Forget(id string) {
	r, ok := p.units[id]
	if !ok {
		return
	}
	if r.bound {
		p.watermarks[r.backend].InFlight--
	}
	p.drop(r)
	p.compact()
}

// drop removes r from the unit index and the pending queue.
func (p *Planner) drop(r *unitRec) {
	if r.queued {
		p.dequeue(r)
	}
	delete(p.units, r.spec.ID)
}

// enqueue appends a live entry for r.
func (p *Planner) enqueue(r *unitRec) {
	r.queued = true
	r.pos = len(p.queue)
	p.queue = append(p.queue, r)
	p.pending++
	p.cores[r.spec.Cores]++
	p.minCores = min(p.minCores, r.spec.Cores)
}

// dequeue kills r's live entry and keeps the per-Cores counts current.
func (p *Planner) dequeue(r *unitRec) {
	r.queued = false
	p.pending--
	c := r.spec.Cores
	if p.cores[c]--; p.cores[c] > 0 {
		return
	}
	delete(p.cores, c)
	if c == p.minCores {
		p.minCores = math.MaxInt
		for k := range p.cores {
			p.minCores = min(p.minCores, k)
		}
	}
}

// Plan runs one planning tick at the given virtual instant: pending
// units, in queue order, are gated on their retry eligibility, guarded
// against double dispatch, offered to the policy, and bound through the
// executor. Units that fit nowhere stay queued, so smaller later units
// may bind first (backfill inside the pilot pool). Units needing more
// cores than the executor's MaxFree are deferred without a Candidates
// query — the query could only come back empty — and the walk stops
// once MaxFree is below every pending unit's Cores, so a tick costs its
// binds and policy calls, not the queue length. The returned instant
// is the earliest pending retry eligibility, or zero if nothing is
// waiting on time — the manager schedules its next self-wake from it.
// now must not decrease from one call to the next.
func (p *Planner) Plan(now time.Time, ex Executor) (nextWake time.Time) {
	nextWake = p.nextRetry(now)
	free := ex.MaxFree()
	if !p.headUntil.IsZero() && !now.Before(p.headUntil) {
		p.head, p.headUntil = 0, time.Time{} // a unit before head is eligible
	}
	prefix := true // entries so far are dead or gated: head may advance
	for i := p.head; i < len(p.queue) && free >= p.minCores; i++ {
		r := p.queue[i]
		live := r.queued && r.pos == i
		gated := live && !r.retryAt.IsZero() && r.retryAt.After(now)
		if prefix && (!live || gated) {
			p.head = i + 1
			if gated && (p.headUntil.IsZero() || r.retryAt.Before(p.headUntil)) {
				p.headUntil = r.retryAt
			}
			continue
		}
		prefix = false
		if !live || gated || r.spec.Cores > free {
			continue
		}
		cands := ex.Candidates(r.spec)
		if len(cands) == 0 {
			continue
		}
		pilot := p.policy(r.spec, cands)
		if pilot == "" {
			continue
		}
		backend := ""
		for _, c := range cands {
			if c.ID == pilot {
				backend = c.Backend
				break
			}
		}
		p.dequeue(r)
		r.bound = true
		r.backend = backend
		r.retryAt = time.Time{}
		p.noteDispatch(backend, now)
		ex.Bind(r.spec, pilot)
		free = ex.MaxFree()
	}
	p.compact()
	return nextWake
}

// compact drops the dead queue entries once they outnumber the live ones,
// so the walk and the memory stay proportional to the pending units.
func (p *Planner) compact() {
	if len(p.queue)-p.pending <= p.pending {
		return
	}
	n, head := 0, 0
	for i, r := range p.queue {
		if r.queued && r.pos == i {
			if i < p.head {
				head++
			}
			r.pos = n
			p.queue[n] = r
			n++
		}
	}
	clear(p.queue[n:]) // let dropped records be collected
	p.queue, p.head = p.queue[:n], head
}

// NoteFailure charges one failure of the given class against the unit's
// budget and rules on a retry. With budget left the unit re-enters the
// queue, eligible again after an exponential-backoff delay with
// deterministic jitter from its own retry stream; otherwise the planner
// forgets it and the caller finalizes it as failed.
func (p *Planner) NoteFailure(id string, class FailureClass, now time.Time) Verdict {
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
		p.enqueue(r)
	} else if r.pos < p.head && r.retryAt.Before(p.headUntil) {
		p.headUntil = r.retryAt
	}
	p.pushRetry(retryEntry{at: r.retryAt, r: r})
	return Verdict{Retry: true, Charges: r.charges, Delay: d, RetryAt: r.retryAt}
}

// nextRetry discards stale and due retry entries and returns the earliest
// retryAt still after now, or zero if no queued unit is gated.
func (p *Planner) nextRetry(now time.Time) time.Time {
	for len(p.retries) > 0 {
		e := p.retries[0]
		if e.r.queued && e.r.retryAt.Equal(e.at) && e.at.After(now) {
			return e.at
		}
		p.popRetry()
	}
	return time.Time{}
}

// pushRetry and popRetry keep p.retries a binary min-heap by at.
func (p *Planner) pushRetry(e retryEntry) {
	h := append(p.retries, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].at.Before(h[parent].at) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	p.retries = h
}

func (p *Planner) popRetry() {
	h := p.retries
	last := len(h) - 1
	h[0] = h[last]
	h[last] = retryEntry{}
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].at.Before(h[c].at) {
			c++
		}
		if !h[c].at.Before(h[i].at) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	p.retries = h
}

// Charges returns the failures charged against a unit's budget so far.
func (p *Planner) Charges(id string) int {
	if r, ok := p.units[id]; ok {
		return r.charges
	}
	return 0
}

// PendingLen returns the number of units awaiting dispatch (including
// units parked in backoff).
func (p *Planner) PendingLen() int { return p.pending }

// DrainPending removes and returns every queued unit ID in queue order —
// the manager's shutdown path, which finalizes them as canceled.
func (p *Planner) DrainPending() []string {
	var out []string
	for i, r := range p.queue {
		if r.queued && r.pos == i {
			p.drop(r)
			out = append(out, r.spec.ID)
		}
	}
	p.queue, p.head, p.headUntil, p.retries = nil, 0, time.Time{}, nil
	return out
}

// Watermarks returns a copy of the per-backend dispatch watermarks, in
// first-dispatch order.
func (p *Planner) Watermarks() map[string]Watermark {
	out := make(map[string]Watermark, len(p.backends))
	for _, b := range p.backends {
		out[b] = *p.watermarks[b]
	}
	return out
}

func (p *Planner) noteDispatch(backend string, now time.Time) {
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
