package miniapp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

func TestTaskWorkloadUnits(t *testing.T) {
	w := TaskWorkload{Name: "w", Count: 10, Duration: dist.Constant(2), Cores: 2}
	units := w.Units()
	if len(units) != 10 {
		t.Fatalf("units = %d, want 10", len(units))
	}
	for i, u := range units {
		if u.Cores != 2 {
			t.Errorf("unit %d cores = %d", i, u.Cores)
		}
		if u.Run == nil {
			t.Errorf("unit %d has nil Run", i)
		}
		if !strings.HasPrefix(u.Name, "w-") {
			t.Errorf("unit name %q", u.Name)
		}
	}
	if (TaskWorkload{}).Units() != nil {
		t.Error("empty workload should produce no units")
	}
}

func TestSubmitAndWaitMeasuresMakespan(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	t.Cleanup(clock.Leave)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 8, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgr.Close()
	mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: 4})

	w := TaskWorkload{Name: "bag", Count: 8, Duration: dist.Constant(1)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	makespan, err := w.SubmitAndWait(ctx, mgr)
	if err != nil {
		t.Fatal(err)
	}
	// 8 tasks × 1s on 4 cores ≈ 2s modeled; accept broad band.
	if makespan < time.Second || makespan > 20*time.Second {
		t.Fatalf("makespan = %v, want ≈2s", makespan)
	}
}

func TestDesignPoints(t *testing.T) {
	d := Design{Factors: []Factor{
		{Name: "a", Levels: []float64{1, 2}},
		{Name: "b", Levels: []float64{10, 20, 30}},
	}}
	pts := d.Points()
	if len(pts) != 6 || d.Size() != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	// First factor varies slowest.
	if pts[0]["a"] != 1 || pts[0]["b"] != 10 {
		t.Errorf("pts[0] = %v", pts[0])
	}
	if pts[5]["a"] != 2 || pts[5]["b"] != 30 {
		t.Errorf("pts[5] = %v", pts[5])
	}
}

func TestDesignEmpty(t *testing.T) {
	d := Design{}
	pts := d.Points()
	if len(pts) != 1 {
		t.Fatalf("empty design points = %d, want 1 (the empty config)", len(pts))
	}
}

func TestRunnerExecutesGridWithReps(t *testing.T) {
	var calls []string
	r := Runner{
		Name:        "exp",
		Design:      Design{Factors: []Factor{{Name: "x", Levels: []float64{1, 2}}}},
		Repetitions: 3,
		Run: func(_ context.Context, cfg map[string]float64, rep int) (map[string]float64, error) {
			calls = append(calls, ConfigKey(cfg, []string{"x"}))
			return map[string]float64{"y": cfg["x"] * 10}, nil
		},
	}
	rs, err := r.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rs.Rows))
	}
	agg := rs.Aggregate("y")
	if s := agg["x=1"]; s.N != 3 || s.Mean != 10 {
		t.Fatalf("agg[x=1] = %+v", s)
	}
	if s := agg["x=2"]; s.Mean != 20 {
		t.Fatalf("agg[x=2] = %+v", s)
	}
}

func TestRunnerAbortsOnErrorByDefault(t *testing.T) {
	boom := errors.New("boom")
	r := Runner{
		Name:   "exp",
		Design: Design{Factors: []Factor{{Name: "x", Levels: []float64{1, 2, 3}}}},
		Run: func(_ context.Context, cfg map[string]float64, _ int) (map[string]float64, error) {
			if cfg["x"] == 2 {
				return nil, boom
			}
			return map[string]float64{"y": 1}, nil
		},
	}
	rs, err := r.Execute(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (aborted at failure)", len(rs.Rows))
	}
}

func TestRunnerContinueOnError(t *testing.T) {
	boom := errors.New("boom")
	r := Runner{
		Name:            "exp",
		Design:          Design{Factors: []Factor{{Name: "x", Levels: []float64{1, 2, 3}}}},
		ContinueOnError: true,
		Run: func(_ context.Context, cfg map[string]float64, _ int) (map[string]float64, error) {
			if cfg["x"] == 2 {
				return nil, boom
			}
			return map[string]float64{"y": 1}, nil
		},
	}
	rs, err := r.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	if agg := rs.Aggregate("y"); len(agg) != 2 {
		t.Fatalf("aggregate over failed rows: %v", agg)
	}
}

func TestRunnerHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{
		Design: Design{Factors: []Factor{{Name: "x", Levels: []float64{1}}}},
		Run: func(context.Context, map[string]float64, int) (map[string]float64, error) {
			return nil, nil
		},
	}
	if _, err := r.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestResultSetTableAndCSV(t *testing.T) {
	rs := &ResultSet{
		Name:    "demo",
		Factors: []string{"x"},
		Rows: []Row{
			{Config: map[string]float64{"x": 1}, Rep: 0, Metrics: map[string]float64{"y": 2}},
			{Config: map[string]float64{"x": 2}, Rep: 0, Err: errors.New("bad")},
		},
	}
	tbl := rs.Table().String()
	if !strings.Contains(tbl, "demo") || !strings.Contains(tbl, "bad") {
		t.Errorf("table missing content:\n%s", tbl)
	}
	var b strings.Builder
	if err := rs.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "x,rep,y,error\n") {
		t.Errorf("csv header: %q", strings.SplitN(b.String(), "\n", 2)[0])
	}
}

func TestMatrixExtraction(t *testing.T) {
	rs := &ResultSet{
		Factors: []string{"a", "b"},
		Rows: []Row{
			{Config: map[string]float64{"a": 1, "b": 2}, Metrics: map[string]float64{"y": 5}},
			{Config: map[string]float64{"a": 3, "b": 4}, Metrics: map[string]float64{"y": 6}},
			{Config: map[string]float64{"a": 9, "b": 9}, Err: errors.New("skip")},
		},
	}
	x, y := rs.Matrix([]string{"a", "b"}, "y")
	if len(x) != 2 || len(y) != 2 {
		t.Fatalf("matrix = %v %v", x, y)
	}
	if x[1][0] != 3 || x[1][1] != 4 || y[1] != 6 {
		t.Fatalf("row 1 = %v %g", x[1], y[1])
	}
}

func TestConfigKeyStable(t *testing.T) {
	cfg := map[string]float64{"b": 2, "a": 1}
	if got := ConfigKey(cfg, []string{"a", "b"}); got != "a=1,b=2" {
		t.Fatalf("key = %q", got)
	}
}
