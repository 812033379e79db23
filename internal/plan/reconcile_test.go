package plan

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gopilot/internal/dist"
)

func TestDetectDriftClassifiesAllThreeClasses(t *testing.T) {
	units := []UnitStatus{
		{ID: "u-ok", Bound: true, Started: true, Pilot: "p-live"},
		{ID: "u-dead-pilot", Bound: true, Pilot: "p-dead"},
		{ID: "u-ghost-pilot", Bound: true, Pilot: "p-unknown"},
		{ID: "u-missing", Bound: true, Started: true, Pilot: "p-live"},
		{ID: "u-done", Terminal: true},
		{ID: "u-moved", Bound: true, Pilot: "p-live2"},
	}
	pilots := []PilotStatus{
		{ID: "p-live", Running: true, Units: []string{"u-ok", "u-done", "u-moved"}},
		{ID: "p-live2", Running: true, Units: []string{"u-moved"}},
		{ID: "p-dead", Terminal: true},
	}
	got := DetectDrift(units, pilots)
	want := []Drift{
		{Class: DriftStateMismatch, Unit: "u-dead-pilot", Pilot: "p-dead"},
		{Class: DriftStateMismatch, Unit: "u-ghost-pilot", Pilot: "p-unknown"},
		{Class: DriftMissingOnAgent, Unit: "u-missing", Pilot: "p-live"},
		{Class: DriftOrphan, Unit: "u-done", Pilot: "p-live"},
		{Class: DriftOrphan, Unit: "u-moved", Pilot: "p-live"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DetectDrift:\n got  %v\n want %v", got, want)
	}
}

func TestDetectDriftCleanWorldIsQuiet(t *testing.T) {
	units := []UnitStatus{
		{ID: "u1", Bound: true, Started: true, Pilot: "p1"},
		{ID: "u2", Bound: true, Pilot: "p1"},
		{ID: "u3"}, // pending, unbound
		{ID: "u4", Terminal: true},
	}
	pilots := []PilotStatus{
		{ID: "p1", Running: true, Units: []string{"u1", "u2"}},
		{ID: "p2"}, // still pending: holds nothing, binds nothing
	}
	if got := DetectDrift(units, pilots); len(got) != 0 {
		t.Fatalf("clean world reported drift: %v", got)
	}
}

func TestDetectDriftPendingPilotIsNotMissing(t *testing.T) {
	// A unit bound to a pilot whose agent has not come up yet is in a
	// legitimate hand-off window, not drifted: missing-on-agent requires a
	// Running pilot.
	units := []UnitStatus{{ID: "u1", Bound: true, Pilot: "p1"}}
	pilots := []PilotStatus{{ID: "p1"}}
	if got := DetectDrift(units, pilots); len(got) != 0 {
		t.Fatalf("hand-off window reported drift: %v", got)
	}
}

func TestReconcilerConfirmsOnSecondSighting(t *testing.T) {
	r := NewReconciler()
	units := []UnitStatus{{ID: "u1", Bound: true, Started: true, Pilot: "p1"}}
	pilots := []PilotStatus{{ID: "p1", Running: true}}
	if got := r.Observe(units, pilots); len(got) != 0 {
		t.Fatalf("first sighting already confirmed: %v", got)
	}
	got := r.Observe(units, pilots)
	want := []Drift{{Class: DriftMissingOnAgent, Unit: "u1", Pilot: "p1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second sighting: got %v, want %v", got, want)
	}
}

func TestReconcilerForgetsHealedTransients(t *testing.T) {
	r := NewReconciler()
	drifted := []UnitStatus{{ID: "u1", Bound: true, Started: true, Pilot: "p1"}}
	pilots := []PilotStatus{{ID: "p1", Running: true}}
	healed := []UnitStatus{{ID: "u1", Terminal: true}}

	r.Observe(drifted, pilots) // first sighting
	if got := r.Observe(healed, pilots); len(got) != 0 {
		t.Fatalf("healed world confirmed drift: %v", got)
	}
	// The sighting memory must have been cleared: a re-appearance starts
	// the two-scan confirmation over.
	if got := r.Observe(drifted, pilots); len(got) != 0 {
		t.Fatalf("stale sighting survived a clean scan: %v", got)
	}
}

// randomDriftWorld builds a seeded desired/actual snapshot pair. Units
// are terminal, pending (unbound), bound to a known pilot or bound to one
// missing from the pilot snapshot; pilots are pending, running or
// terminal, and hold a random mix of snapshot units and ids the unit
// snapshot does not list.
func randomDriftWorld(s *dist.Stream) ([]UnitStatus, []PilotStatus) {
	pilots := make([]PilotStatus, 1+s.Intn(4))
	for i := range pilots {
		pilots[i].ID = fmt.Sprintf("p%d", i)
		switch s.Intn(3) {
		case 1:
			pilots[i].Running = true
		case 2:
			pilots[i].Terminal = true
		}
	}
	units := make([]UnitStatus, s.Intn(24))
	for i := range units {
		u := UnitStatus{ID: fmt.Sprintf("u%d", i)}
		switch s.Intn(4) {
		case 0:
			u.Terminal = true
		case 1: // pending
		case 2:
			u.Bound, u.Started, u.Pilot = true, s.Bernoulli(0.5), pilots[s.Intn(len(pilots))].ID
		case 3:
			u.Bound, u.Started, u.Pilot = true, s.Bernoulli(0.5), "p-gone"
		}
		units[i] = u
	}
	for i := range pilots {
		var held []string
		for _, u := range units {
			if s.Bernoulli(0.3) || u.Pilot == pilots[i].ID && s.Bernoulli(0.7) {
				held = append(held, u.ID)
			}
		}
		for k := s.Intn(3); k > 0; k-- {
			held = append(held, fmt.Sprintf("x%d", s.Intn(5)))
		}
		slices.Sort(held)
		pilots[i].Units = slices.Compact(held)
	}
	return units, pilots
}

// liveBound keeps the units a live-only snapshot reports: the
// non-terminal bound ones.
func liveBound(units []UnitStatus) []UnitStatus {
	var out []UnitStatus
	for _, u := range units {
		if !u.Terminal && u.Bound {
			out = append(out, u)
		}
	}
	return out
}

func TestDetectDriftIgnoresTerminalAndUnboundUnits(t *testing.T) {
	seen := make(map[DriftClass]int)
	for seed := int64(1); seed <= 500; seed++ {
		units, pilots := randomDriftWorld(dist.NewStream(seed))
		full, trimmed := DetectDrift(units, pilots), DetectDrift(liveBound(units), pilots)
		if !reflect.DeepEqual(full, trimmed) {
			t.Fatalf("seed %d: full snapshot drifts %v, live-only %v\nunits %+v\npilots %+v", seed, full, trimmed, units, pilots)
		}
		for _, d := range full {
			seen[d.Class]++
		}
	}
	for _, c := range []DriftClass{DriftOrphan, DriftStateMismatch, DriftMissingOnAgent} {
		if seen[c] == 0 {
			t.Errorf("no %v drift in any generated world", c)
		}
	}
}

func TestReconcilerConfirmsSameDriftsFromLiveSnapshot(t *testing.T) {
	confirmed := 0
	for seed := int64(1); seed <= 50; seed++ {
		s := dist.NewStream(seed)
		full, trimmed := NewReconciler(), NewReconciler()
		units, pilots := randomDriftWorld(s)
		for step := 0; step < 20; step++ {
			// Worlds persist for a few scans, so drifts get confirmed.
			if s.Bernoulli(0.4) {
				units, pilots = randomDriftWorld(s)
			}
			a, b := full.Observe(units, pilots), trimmed.Observe(liveBound(units), pilots)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d step %d: full snapshot confirmed %v, live-only %v", seed, step, a, b)
			}
			confirmed += len(a)
		}
	}
	if confirmed == 0 {
		t.Fatal("no drift was ever confirmed")
	}
}
