package core

import (
	"fmt"
	"math"
	"testing"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/plan"
)

// TestPlannerExecMaxFreeBoundsCandidates checks the executor half of the
// planner's capacity gate on seeded pilot pools mixing pending, running,
// ended and outage-struck pilots: MaxFree is exactly the largest free
// capacity among the pilots Candidates returns, so a unit is skipped
// (Cores > MaxFree) precisely when Candidates would come back empty.
func TestPlannerExecMaxFreeBoundsCandidates(t *testing.T) {
	m := &Manager{unitByID: map[string]*ComputeUnit{"u": {}}}
	m.exec.m = m
	states := []PilotState{PilotPending, PilotRunning, PilotRunning, PilotDone}
	for i := 0; i < 5; i++ {
		m.pilots = append(m.pilots, &Pilot{
			id:     fmt.Sprintf("pilot-%d", i),
			desc:   PilotDescription{Resource: fmt.Sprintf("hpc://site%d", i)},
			faults: &infra.Faults{},
		})
	}
	s := dist.NewStream(11)
	for round := 0; round < 200; round++ {
		for _, p := range m.pilots {
			p.state = states[s.Intn(len(states))]
			p.freeCores = s.Intn(9)
			p.faults.SetDown(s.Bernoulli(0.25))
		}
		tight := math.MinInt
		for _, c := range m.exec.Candidates(plan.UnitSpec{ID: "u", Cores: 0}) {
			tight = max(tight, c.FreeCores)
		}
		free := m.exec.MaxFree()
		if free != tight {
			t.Fatalf("round %d: MaxFree = %d, want %d (largest free among candidates)", round, free, tight)
		}
		for cores := 1; cores <= 9; cores++ {
			n := len(m.exec.Candidates(plan.UnitSpec{ID: "u", Cores: cores}))
			if (n > 0) != (cores <= free) {
				t.Fatalf("round %d: cores %d: %d candidates but MaxFree %d", round, cores, n, free)
			}
		}
	}
}
