package enkf

import (
	"context"
	"math"
	"testing"

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

func TestAnalyzePullsEnsembleTowardObservation(t *testing.T) {
	rng := dist.NewStream(1)
	// Ensemble far from the observation.
	members := make([][]float64, 32)
	for i := range members {
		members[i] = []float64{10 + rng.NormFloat64()}
	}
	obs := []float64{0}
	before := math.Abs(meanOf(members, 0) - obs[0])
	analyze(members, obs, 0.5, rng)
	after := math.Abs(meanOf(members, 0) - obs[0])
	if after >= before {
		t.Fatalf("analysis did not move ensemble toward obs: %g → %g", before, after)
	}
}

func TestAnalyzeShrinksSpread(t *testing.T) {
	rng := dist.NewStream(2)
	members := make([][]float64, 64)
	for i := range members {
		members[i] = []float64{rng.NormFloat64() * 4}
	}
	before := ensembleSpread(members)
	analyze(members, []float64{0}, 0.5, rng)
	after := ensembleSpread(members)
	if after >= before {
		t.Fatalf("analysis did not shrink spread: %g → %g", before, after)
	}
}

func TestAnalyzeNoOpForTinyEnsemble(t *testing.T) {
	members := [][]float64{{5}}
	analyze(members, []float64{0}, 0.5, dist.NewStream(1))
	if members[0][0] != 5 {
		t.Fatal("singleton ensemble modified")
	}
}

func meanOf(members [][]float64, dim int) float64 {
	var s float64
	for _, m := range members {
		s += m[dim]
	}
	return s / float64(len(members))
}

func TestEnsembleSpreadAndRMSE(t *testing.T) {
	members := [][]float64{{0, 0}, {2, 2}}
	if s := ensembleSpread(members); math.Abs(s-math.Sqrt2) > 1e-9 {
		t.Fatalf("spread = %g, want √2", s)
	}
	truth := []float64{1, 1}
	if r := rmseTo(members, truth); r > 1e-9 {
		t.Fatalf("rmse of centered ensemble = %g, want 0", r)
	}
}

func TestRunTracksTruth(t *testing.T) {
	mgr := newMgr(t, 16)
	res, err := Run(context.Background(), mgr, Config{
		StateDim: 3, InitialEnsemble: 16, Cycles: 6,
		ForecastTime: dist.Constant(0.5), ObsNoise: 0.3, Stream: dist.NewStream(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cycles) != 6 {
		t.Fatalf("cycles = %d", len(res.Cycles))
	}
	// Assimilation must keep RMSE bounded (filter not diverging).
	last := res.Cycles[len(res.Cycles)-1]
	if math.IsNaN(last.RMSE) || last.RMSE > 5 {
		t.Fatalf("filter diverged: RMSE = %g", last.RMSE)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestAdaptiveResizesEnsemble(t *testing.T) {
	mgr := newMgr(t, 32)
	// Small spread target far below natural spread forces growth.
	res, err := Run(context.Background(), mgr, Config{
		StateDim: 3, InitialEnsemble: 8, MinEnsemble: 4, MaxEnsemble: 32,
		Cycles: 6, ForecastTime: dist.Constant(0.2),
		SpreadTarget: 0.05, Adaptive: true, Stream: dist.NewStream(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes == 0 {
		t.Fatal("adaptive run never resized")
	}
	if res.FinalEnsemble < 4 || res.FinalEnsemble > 32 {
		t.Fatalf("final ensemble %d outside bounds", res.FinalEnsemble)
	}
	// Member counts must vary across cycles.
	first := res.Cycles[0].Members
	varied := false
	for _, c := range res.Cycles {
		if c.Members != first {
			varied = true
		}
		if c.Members < 4 || c.Members > 32 {
			t.Fatalf("cycle %d members %d outside bounds", c.Cycle, c.Members)
		}
	}
	if !varied {
		t.Fatal("ensemble size never changed despite resizes")
	}
}

func TestNonAdaptiveKeepsSize(t *testing.T) {
	mgr := newMgr(t, 16)
	res, err := Run(context.Background(), mgr, Config{
		InitialEnsemble: 12, Cycles: 3, ForecastTime: dist.Constant(0.2), Stream: dist.NewStream(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cycles {
		if c.Members != 12 {
			t.Fatalf("cycle %d members = %d, want 12", c.Cycle, c.Members)
		}
	}
	if res.Resizes != 0 {
		t.Fatalf("resizes = %d, want 0", res.Resizes)
	}
}

func TestModelIsStable(t *testing.T) {
	rng := dist.NewStream(3)
	x := []float64{1, 2, 3}
	for i := 0; i < 500; i++ {
		x = model(x, 0.1, rng)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.Abs(v) > 100 {
			t.Fatalf("model diverged: %v", x)
		}
	}
}

func TestDefaults(t *testing.T) {
	cfg := (&Config{}).withDefaults()
	if cfg.StateDim != 3 || cfg.InitialEnsemble != 16 || cfg.Cycles != 5 {
		t.Fatalf("defaults = %+v", cfg)
	}
}
