package plan

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"gopilot/internal/dist"
)

// poolPilot is one pilot of a poolExec. A pilot that is not running yet,
// or whose backend is inside an outage, is hidden from Candidates — and
// so must be ignored by MaxFree.
type poolPilot struct {
	Candidate
	running bool
	down    bool
}

// poolExec is an Executor over a mutable pilot pool. It reuses its
// Candidates buffer the way the manager does, and counts the queries.
type poolExec struct {
	pilots    []poolPilot
	maxFree   func(*poolExec) int // nil: exactMaxFree
	scratch   []Candidate
	binds     []string // "unit->pilot" in bind order
	candCalls int
}

func (e *poolExec) visible(i int) bool { return e.pilots[i].running && !e.pilots[i].down }

// exactMaxFree is the tightest bound: the largest free capacity of any
// pilot Candidates can return.
func exactMaxFree(e *poolExec) int {
	best := math.MinInt
	for i, p := range e.pilots {
		if e.visible(i) {
			best = max(best, p.FreeCores)
		}
	}
	return best
}

// noGate turns the gate off: every eligible unit is offered to Candidates.
func noGate(*poolExec) int { return math.MaxInt }

// underMaxFree is a broken bound that ignores the last visible pilot.
func underMaxFree(e *poolExec) int {
	best, last := math.MinInt, -1
	for i := range e.pilots {
		if e.visible(i) {
			last = i
		}
	}
	for i, p := range e.pilots {
		if e.visible(i) && i != last {
			best = max(best, p.FreeCores)
		}
	}
	return best
}

func (e *poolExec) MaxFree() int {
	if e.maxFree == nil {
		return exactMaxFree(e)
	}
	return e.maxFree(e)
}

func (e *poolExec) Candidates(u UnitSpec) []Candidate {
	e.candCalls++
	out := e.scratch[:0]
	for i, p := range e.pilots {
		if e.visible(i) && p.FreeCores >= u.Cores {
			out = append(out, p.Candidate)
		}
	}
	e.scratch = out
	return out
}

func (e *poolExec) Bind(u UnitSpec, pilotID string) {
	for i := range e.pilots {
		if e.pilots[i].ID == pilotID {
			e.pilots[i].FreeCores -= u.Cores
		}
	}
	e.binds = append(e.binds, u.ID+"->"+pilotID)
}

// tickPlanner is the planner surface the scenarios drive: Planner, and
// the linear refPlanner it must agree with tick for tick.
type tickPlanner interface {
	Admit(spec UnitSpec)
	Forget(id string)
	Plan(now time.Time, ex Executor) time.Time
	NoteFailure(id string, class FailureClass, now time.Time) Verdict
	PendingLen() int
	DrainPending() []string
	Watermarks() map[string]Watermark
}

// gateWorld is one planner driving one pool, plus the units it has bound
// and not yet returned.
type gateWorld struct {
	p           tickPlanner
	ex          *poolExec
	running     []string // bound unit IDs, in bind order
	at          map[string]int
	cores       map[string]int
	policyCalls int
}

// newGateWorld builds a world around a Planner, or around the reference
// planner when ref is set.
func newGateWorld(seed int64, maxFree func(*poolExec) int, ref bool) *gateWorld {
	w := &gateWorld{
		ex: &poolExec{maxFree: maxFree, pilots: []poolPilot{
			{Candidate{ID: "p0", Backend: "hpc://a", FreeCores: 16}, true, false},
			{Candidate{ID: "p1", Backend: "htc://b", FreeCores: 12}, true, false},
			{Candidate{ID: "p2", Backend: "cloud://c", FreeCores: 24}, false, false},
			{Candidate{ID: "p3", Backend: "yarn://d", FreeCores: 8}, true, false},
		}},
		at:    make(map[string]int),
		cores: make(map[string]int),
	}
	// Least-loaded, except that every fifth unit defers when it has only
	// one choice — so "policy said no" is exercised alongside "no fit".
	policy := func(u UnitSpec, cands []Candidate) string {
		w.policyCalls++
		if u.Ordinal%5 == 0 && len(cands) == 1 {
			return ""
		}
		best := cands[0]
		for _, c := range cands[1:] {
			if c.FreeCores > best.FreeCores {
				best = c
			}
		}
		return best.ID
	}
	cfg := Config{Stream: dist.NewStream(seed), Policy: policy, Backoff: Backoff{Initial: 3 * time.Second, Max: 30 * time.Second}}
	if ref {
		w.p = newRefPlanner(cfg)
	} else {
		w.p = New(cfg)
	}
	return w
}

func (w *gateWorld) admit(u UnitSpec) {
	w.cores[u.ID] = u.Cores
	w.p.Admit(u)
}

// release returns a running unit's cores to its pilot.
func (w *gateWorld) release(id string) error {
	i := slices.Index(w.running, id)
	if i < 0 {
		return fmt.Errorf("unit %s is not running", id)
	}
	w.running = slices.Delete(w.running, i, i+1)
	w.ex.pilots[w.at[id]].FreeCores += w.cores[id]
	return nil
}

// plan runs one tick and returns its observable outcome.
func (w *gateWorld) plan(now time.Time) string {
	from := len(w.ex.binds)
	next := w.p.Plan(now, w.ex)
	for _, b := range w.ex.binds[from:] {
		id, pilot, _ := strings.Cut(b, "->")
		w.running = append(w.running, id)
		w.at[id] = slices.IndexFunc(w.ex.pilots, func(p poolPilot) bool { return p.ID == pilot })
	}
	return fmt.Sprintf("binds=%v next=%v pending=%d policy=%d watermarks=%v",
		w.ex.binds[from:], next, w.p.PendingLen(), w.policyCalls, w.p.Watermarks())
}

// runGateScenario drives three worlds through the same seeded history: a
// Planner gated by maxFree, a Planner with the gate off, and the linear
// reference planner gated by maxFree. The history mixes arrivals with
// mixed Cores, completions, failures into retry backoff, cancellations,
// an outage that flips on and off, a pilot that starts late, policy
// deferrals, repeated failures of the unit at the head of the queue
// (which park it there under ever longer backoffs and leave its older
// retry entries stale), cancellation of that head unit, and a
// DrainPending part-way through. It returns the first tick whose outcome
// differs: every tick's binds, wake instant, pending count, policy calls
// and watermarks must match across all three, and the gated Planner must
// also match the reference's Candidates calls and retry verdicts.
func runGateScenario(seed int64, maxFree func(*poolExec) int) error {
	gated, ungated, ref := newGateWorld(seed, maxFree, false), newGateWorld(seed, noGate, false), newGateWorld(seed, maxFree, true)
	worlds := []*gateWorld{gated, ungated, ref}
	head := ref.p.(*refPlanner).headPending
	fail := func(id string, class FailureClass, now time.Time) error {
		want := ref.p.NoteFailure(id, class, now)
		for _, w := range worlds[:2] {
			if got := w.p.NoteFailure(id, class, now); got != want {
				return fmt.Errorf("failure of %s: verdict %+v, reference %+v", id, got, want)
			}
		}
		return nil
	}
	ev := dist.NewStream(seed).Named("events")
	ord := uint64(0)
	for tick := 0; tick < 120; tick++ {
		now := t0.Add(time.Duration(tick) * 2 * time.Second)
		if tick < 10 || tick >= 60 && tick < 66 {
			for n := 40; n > 0; n-- {
				ord++
				u := UnitSpec{ID: fmt.Sprintf("u%d", ord), Ordinal: ord, Cores: 1 + ev.Intn(8), MaxRetries: 1 + ev.Intn(7)}
				for _, w := range worlds {
					w.admit(u)
				}
			}
		}
		if tick == 12 {
			for _, w := range worlds {
				w.ex.pilots[2].running = true
			}
		}
		if ev.Bernoulli(0.2) {
			for _, w := range worlds {
				w.ex.pilots[1].down = !w.ex.pilots[1].down
			}
		}
		// Returns are decided from the reference world and replayed on all.
		for _, id := range slices.Clone(ref.running) {
			switch x := ev.Float64(); {
			case x < 0.3: // done
				for _, w := range worlds {
					if err := w.release(id); err != nil {
						return fmt.Errorf("tick %d: %v", tick, err)
					}
					w.p.Forget(id)
				}
			case x < 0.4: // pilot lost under the unit: requeue with backoff
				for _, w := range worlds {
					if err := w.release(id); err != nil {
						return fmt.Errorf("tick %d: %v", tick, err)
					}
				}
				if err := fail(id, FailureExecution, now); err != nil {
					return fmt.Errorf("seed %d tick %d: %v", seed, tick, err)
				}
			}
		}
		if id := head(); id != "" && ev.Bernoulli(0.4) {
			// The head unit fails while still queued (a drift correction):
			// it stays at the head, gated again, usually later than before.
			if err := fail(id, FailurePreStart, now); err != nil {
				return fmt.Errorf("seed %d tick %d: %v", seed, tick, err)
			}
		}
		if id := head(); id != "" && ev.Bernoulli(0.1) { // cancel the head unit
			for _, w := range worlds {
				w.p.Forget(id)
			}
		}
		if ev.Bernoulli(0.3) { // cancel one unit that may still be pending
			id := fmt.Sprintf("u%d", 1+ev.Intn(int(ord)))
			if !slices.Contains(ref.running, id) {
				for _, w := range worlds {
					w.p.Forget(id)
				}
			}
		}
		if tick == 50 {
			want := fmt.Sprint(ref.p.DrainPending())
			for _, w := range worlds[:2] {
				if got := fmt.Sprint(w.p.DrainPending()); got != want {
					return fmt.Errorf("seed %d tick %d: DrainPending %s, reference %s", seed, tick, got, want)
				}
			}
		}
		want := ref.plan(now)
		for _, w := range worlds[:2] {
			if got := w.plan(now); got != want {
				return fmt.Errorf("seed %d tick %d:\n got       %s\n reference %s", seed, tick, got, want)
			}
		}
		if gated.ex.candCalls != ref.ex.candCalls {
			return fmt.Errorf("seed %d tick %d: %d Candidates calls, reference %d", seed, tick, gated.ex.candCalls, ref.ex.candCalls)
		}
	}
	if gated.ex.candCalls >= ungated.ex.candCalls {
		return fmt.Errorf("seed %d: gate saved no Candidates calls (%d vs %d)", seed, gated.ex.candCalls, ungated.ex.candCalls)
	}
	return nil
}

func TestMaxFreeGateMatchesUngatedPlanner(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if err := runGateScenario(seed, exactMaxFree); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlannerMatchesLinearReference(t *testing.T) {
	// More histories than the gate test replays, each checked tick by
	// tick against the linear reference planner.
	for seed := int64(21); seed <= 60; seed++ {
		if err := runGateScenario(seed, exactMaxFree); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMaxFreeGateScenarioCatchesUnderReport(t *testing.T) {
	// The equivalence check has teeth: a bound that ignores one running
	// pilot defers units that fit, and some seed must expose it.
	for seed := int64(1); seed <= 20; seed++ {
		if runGateScenario(seed, underMaxFree) != nil {
			return
		}
	}
	t.Fatal("an under-reporting MaxFree went unnoticed on every seed")
}

func TestPlanSkipsCandidatesWhenPoolFull(t *testing.T) {
	p := newPlanner(Backoff{})
	for i := 1; i <= 1000; i++ {
		p.Admit(UnitSpec{ID: fmt.Sprintf("u%d", i), Ordinal: uint64(i), Cores: 1})
	}
	// Free capacity exists only on pilots Candidates cannot return: one in
	// an outage, one not running yet.
	ex := &poolExec{pilots: []poolPilot{
		{Candidate{ID: "pA", Backend: "hpc://a", FreeCores: 0}, true, false},
		{Candidate{ID: "pB", Backend: "htc://b", FreeCores: 4}, true, true},
		{Candidate{ID: "pC", Backend: "cloud://c", FreeCores: 8}, false, false},
	}}
	p.Plan(t0, ex)
	if ex.candCalls != 0 || len(ex.binds) != 0 || p.PendingLen() != 1000 {
		t.Fatalf("full pool: %d Candidates calls, binds %v, pending %d; want 0, none, 1000",
			ex.candCalls, ex.binds, p.PendingLen())
	}
	// One slot frees on the reachable pilot: the first unit takes it and
	// the rest of the tick is gated again.
	ex.pilots[0].FreeCores = 1
	p.Plan(t0.Add(time.Second), ex)
	if ex.candCalls != 1 || !slices.Equal(ex.binds, []string{"u1->pA"}) || p.PendingLen() != 999 {
		t.Fatalf("one free slot: %d Candidates calls, binds %v, pending %d; want 1, [u1->pA], 999",
			ex.candCalls, ex.binds, p.PendingLen())
	}
}
