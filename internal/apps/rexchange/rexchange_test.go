package rexchange

import (
	"context"
	"math"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

func newMgr(t *testing.T, cores int) *core.Manager {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	t.Cleanup(clock.Leave)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", cores, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	t.Cleanup(mgr.Close)
	mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: cores})
	return mgr
}

func TestGeometricLadder(t *testing.T) {
	l := geometricLadder(4, 1, 8)
	if l[0] != 1 || math.Abs(l[3]-8) > 1e-9 {
		t.Fatalf("ladder = %v", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not increasing: %v", l)
		}
	}
	if ratio1, ratio2 := l[1]/l[0], l[2]/l[1]; math.Abs(ratio1-ratio2) > 1e-9 {
		t.Fatalf("ladder not geometric: %v", l)
	}
	single := geometricLadder(1, 2, 16)
	if len(single) != 1 || single[0] != 2 {
		t.Fatalf("singleton ladder = %v", single)
	}
}

func TestMDPhaseExploresAndTracksEnergy(t *testing.T) {
	rng := dist.NewStream(1)
	r := Replica{Temperature: 2, Position: 0, Energy: potential(0)}
	start := r.Position
	mdPhase(&r, 500, rng)
	if r.Position == start {
		t.Error("replica never moved")
	}
	// Energy bookkeeping must stay consistent with the potential.
	if math.Abs(r.Energy-potential(r.Position)) > 1e-6 {
		t.Errorf("energy %g drifted from potential %g", r.Energy, potential(r.Position))
	}
}

func TestHotterReplicaMovesMore(t *testing.T) {
	move := func(temp float64) float64 {
		rng := dist.NewStream(7)
		total := 0.0
		for trial := 0; trial < 20; trial++ {
			r := Replica{Temperature: temp, Position: 0, Energy: potential(0)}
			prev := r.Position
			for s := 0; s < 50; s++ {
				mdPhase(&r, 1, rng)
				total += math.Abs(r.Position - prev)
				prev = r.Position
			}
		}
		return total
	}
	if move(10) <= move(0.1) {
		t.Error("high-temperature replica did not move more than cold one")
	}
}

func TestRunCompletesAndCounts(t *testing.T) {
	mgr := newMgr(t, 8)
	res, err := Run(context.Background(), mgr, Config{
		Replicas: 8, Cycles: 3, MDTime: dist.Constant(1),
		ExchangeTime: 200 * time.Millisecond, Stream: dist.NewStream(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != 8 {
		t.Fatalf("replicas = %d", len(res.Replicas))
	}
	if len(res.CycleTimes) != 3 {
		t.Fatalf("cycle times = %d, want 3", len(res.CycleTimes))
	}
	// Alternating pairing: cycle0 even pairs (4), cycle1 odd pairs (3), cycle2 even (4).
	if res.ExchangesAttempted != 11 {
		t.Fatalf("attempted = %d, want 11", res.ExchangesAttempted)
	}
	if res.ExchangesAccepted < 0 || res.ExchangesAccepted > res.ExchangesAttempted {
		t.Fatalf("accepted = %d of %d", res.ExchangesAccepted, res.ExchangesAttempted)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestTemperatureSetPreservedByExchanges(t *testing.T) {
	mgr := newMgr(t, 8)
	cfg := Config{Replicas: 6, Cycles: 4, MDTime: dist.Constant(0.5), TMin: 1, TMax: 8, Stream: dist.NewStream(3)}
	res, err := Run(context.Background(), mgr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exchanges permute temperatures but never create/destroy them.
	want := geometricLadder(6, 1, 8)
	got := make([]float64, 0, 6)
	for _, r := range res.Replicas {
		got = append(got, r.Temperature)
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if math.Abs(g-w) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("temperature %g missing from final set %v", w, got)
		}
	}
}

func TestWavesWhenPilotSmallerThanEnsemble(t *testing.T) {
	mgr := newMgr(t, 4) // 8 replicas on 4 cores → 2 waves per cycle
	res, err := Run(context.Background(), mgr, Config{
		Replicas: 8, Cycles: 2, MDTime: dist.Constant(2), Stream: dist.NewStream(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each cycle ≈ 2 waves × 2s = 4s; accept broad band but must exceed
	// one wave.
	for i, ct := range res.CycleTimes {
		if ct < 3*time.Second {
			t.Errorf("cycle %d = %v, want ≥ ~4s (two waves)", i, ct)
		}
	}
}

func TestAdaptiveRetunesLadder(t *testing.T) {
	mgr := newMgr(t, 16)
	// A very low acceptance target: any cycle accepting more than 10% of
	// proposals is "too free", so the controller must stretch the ladder.
	// With 8 replicas the wide ladder's top rungs accept readily, making
	// the out-of-band condition near-certain within 6 cycles.
	res, err := Run(context.Background(), mgr, Config{
		Replicas: 8, Cycles: 6, MDTime: dist.Constant(0.2),
		TMin: 0.5, TMax: 64, Adaptive: true, TargetAcceptance: 0.05, Stream: dist.NewStream(17),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LadderRetunes == 0 {
		t.Fatal("adaptive run never retuned the ladder")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := (&Config{}).withDefaults()
	if cfg.Replicas != 8 || cfg.Cycles != 4 || cfg.TMax <= cfg.TMin {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestAcceptanceRatioEdge(t *testing.T) {
	r := &Result{}
	if r.AcceptanceRatio() != 0 {
		t.Fatal("ratio with zero attempts should be 0")
	}
}
