package plan

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gopilot/internal/dist"
)

// tickExec is a one-pilot pool for BenchmarkPlanTick. It records nothing
// per bind but the last bound unit, so the benchmark's allocations are
// the planner's own.
type tickExec struct {
	free  int
	cands []Candidate
	bound string
}

func (e *tickExec) MaxFree() int { return e.free }

func (e *tickExec) Candidates(u UnitSpec) []Candidate {
	out := e.cands[:0]
	if u.Cores <= e.free {
		out = append(out, Candidate{ID: "p0", Backend: "hpc://a", FreeCores: e.free})
	}
	e.cands = out
	return out
}

func (e *tickExec) Bind(u UnitSpec, _ string) {
	e.free -= u.Cores
	e.bound = u.ID
}

// BenchmarkPlanTick measures one planning tick over a queue of N pending
// single-core units. full: the pool has no free core, so the tick binds
// nothing. one-free: one core frees before each tick, the head of the
// queue binds it, and the bound unit is handed back through NoteFailure
// so the queue stays at N (each tick runs an hour after the last, past
// any retry backoff). gated: like one-free, but nine units in ten sit in
// retry backoff far past every tick instant; as the eligible tenth
// cycles through the tail, the gated units end up ahead of it.
func BenchmarkPlanTick(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []string{"full", "one-free", "gated"} {
			b.Run(fmt.Sprintf("pending=%d/%s", n, mode), func(b *testing.B) {
				p := New(Config{Stream: dist.NewStream(1)})
				for i := 1; i <= n; i++ {
					p.Admit(UnitSpec{ID: fmt.Sprintf("u%d", i), Ordinal: uint64(i), Cores: 1, MaxRetries: math.MaxInt})
				}
				if mode == "gated" {
					parked := t0.AddDate(1000, 0, 0)
					for i := 1; i <= n; i++ {
						if i%10 != 1 {
							p.NoteFailure(fmt.Sprintf("u%d", i), FailurePreStart, parked)
						}
					}
				}
				ex := &tickExec{}
				now := t0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now = now.Add(time.Hour)
					if mode != "full" {
						ex.free = 1
					}
					p.Plan(now, ex)
					if ex.bound != "" {
						p.NoteFailure(ex.bound, FailurePreStart, now)
						ex.bound = ""
					}
				}
				if p.PendingLen() != n {
					b.Fatalf("pending = %d, want %d", p.PendingLen(), n)
				}
			})
		}
	}
}
