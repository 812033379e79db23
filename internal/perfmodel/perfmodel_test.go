package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"gopilot/internal/dist"
)

func TestPilotMakespanWaves(t *testing.T) {
	// 10 tasks of 60s on 4 cores: 3 waves → 180s + startup + overhead.
	got := PilotMakespan(10, 4, time.Minute, 30*time.Second, time.Second)
	want := 30*time.Second + 3*time.Minute + 10*time.Second
	if got != want {
		t.Fatalf("makespan = %v, want %v", got, want)
	}
	if PilotMakespan(0, 4, time.Minute, 0, 0) != 0 {
		t.Error("zero tasks should cost nothing")
	}
}

// Property: makespan is non-increasing in cores and non-decreasing in n.
func TestPilotMakespanMonotonicity(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := int(n8%64) + 1
		c := int(c8%16) + 1
		t1 := PilotMakespan(n, c, time.Minute, 0, time.Second)
		t2 := PilotMakespan(n, c+1, time.Minute, 0, time.Second)
		t3 := PilotMakespan(n+1, c, time.Minute, 0, time.Second)
		return t2 <= t1 && t3 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupCurve(t *testing.T) {
	curve := SpeedupCurve(64, time.Minute, 0, 0, []int{1, 2, 4, 8})
	if curve[1] != 1 {
		t.Errorf("speedup at base = %g", curve[1])
	}
	if math.Abs(curve[8]-8) > 1e-9 {
		t.Errorf("ideal speedup at 8 cores = %g, want 8", curve[8])
	}
	// With overhead, speedup degrades below ideal.
	withOv := SpeedupCurve(64, time.Minute, 0, 5*time.Second, []int{1, 8})
	if withOv[8] >= 8 {
		t.Errorf("overheads should reduce speedup, got %g", withOv[8])
	}
}

func TestAmdahl(t *testing.T) {
	if s := Amdahl(0, 16); s != 16 {
		t.Errorf("fully parallel = %g, want 16", s)
	}
	if s := Amdahl(1, 16); s != 1 {
		t.Errorf("fully serial = %g, want 1", s)
	}
	if s := Amdahl(0.1, 1e9); s > 10.0001 {
		t.Errorf("asymptote = %g, want ≤10", s)
	}
	if Amdahl(0.5, 0) != 0 {
		t.Error("p=0 should be 0")
	}
}

func TestRexModel(t *testing.T) {
	m := RexModel{
		Replicas: 16, CoresPerReplica: 4, PilotCores: 32,
		MD: 10 * time.Minute, Exchange: time.Minute, Startup: 5 * time.Minute,
	}
	if c := m.Concurrency(); c != 8 {
		t.Fatalf("concurrency = %d, want 8", c)
	}
	// 16 replicas / 8 concurrent = 2 waves ×10m + 1m exchange = 21m.
	if ct := m.CycleTime(); ct != 21*time.Minute {
		t.Fatalf("cycle = %v, want 21m", ct)
	}
	if tt := m.Total(10); tt != 5*time.Minute+210*time.Minute {
		t.Fatalf("total = %v", tt)
	}
	eff := m.Efficiency(10)
	if eff <= 0 || eff > 1 {
		t.Fatalf("efficiency = %g", eff)
	}
	// More pilot cores (full concurrency) → higher efficiency per time,
	// but bounded by exchange overhead.
	m2 := m
	m2.PilotCores = 64
	if m2.CycleTime() >= m.CycleTime() {
		t.Error("more cores should shorten the cycle")
	}
}

func TestRexModelDegenerate(t *testing.T) {
	m := RexModel{Replicas: 4, CoresPerReplica: 8, PilotCores: 4, MD: time.Minute}
	if m.Concurrency() != 0 || m.CycleTime() != 0 {
		t.Fatal("undersized pilot should yield zero concurrency")
	}
}

func TestDirectSubmissionSimQueueDominates(t *testing.T) {
	// 64 jobs, generous slots, 60s tasks, exogenous waits ≈ 600s: makespan
	// is dominated by the *maximum* queue wait, not the task time.
	qw := dist.NewLogNormal(600, 1.0, 42)
	got := DirectSubmissionSim(64, 64, time.Minute, qw)
	if got < 10*time.Minute {
		t.Fatalf("makespan = %v, want ≥ 10m (max of 64 lognormal waits)", got)
	}
}

func TestDirectVsPilotShape(t *testing.T) {
	// The paper's late-binding claim: for many short tasks under heavy
	// queues, one pilot (one queue wait) beats per-task submission.
	task := time.Minute
	mkQ := func(seed int64) dist.Dist { return dist.NewLogNormal(900, 0.8, seed) }
	direct := DirectSubmissionSim(256, 32, task, mkQ(1))
	pilot := PilotSubmissionSim(256, 32, task, mkQ(2), 100*time.Millisecond)
	if pilot >= direct {
		t.Fatalf("pilot %v not faster than direct %v for 256 tasks", pilot, direct)
	}
}

func TestDirectSubmissionSimEdges(t *testing.T) {
	if DirectSubmissionSim(0, 4, time.Minute, dist.Constant(0)) != 0 {
		t.Error("zero jobs should cost nothing")
	}
	// slots <= 0 means unbounded.
	got := DirectSubmissionSim(8, 0, time.Minute, dist.Constant(0))
	if got != time.Minute {
		t.Errorf("unbounded slots makespan = %v, want 1m", got)
	}
	// Capacity-limited: 8 jobs, 2 slots, no queue wait → 4 waves.
	got = DirectSubmissionSim(8, 2, time.Minute, dist.Constant(0))
	if got != 4*time.Minute {
		t.Errorf("capacity-limited makespan = %v, want 4m", got)
	}
}

func TestDirectSubmissionSimNegativeWaitPanics(t *testing.T) {
	// A negative queue wait would start a job before it was submitted:
	// always a modelling bug, so the model refuses it.
	defer func() {
		if recover() == nil {
			t.Fatal("negative queue wait did not panic")
		}
	}()
	DirectSubmissionSim(4, 2, time.Minute, dist.NewNormal(-600, 1, 1))
}

func TestMaxOfNQuantileGrowsWithN(t *testing.T) {
	d1 := dist.NewLogNormal(100, 1.0, 7)
	d2 := dist.NewLogNormal(100, 1.0, 7)
	q1 := MaxOfNQuantile(d1, 1, 0.5, 300)
	q64 := MaxOfNQuantile(d2, 64, 0.5, 300)
	if q64 <= q1 {
		t.Fatalf("max-of-64 median %g not > max-of-1 median %g", q64, q1)
	}
}

func TestFitOLSRecoversPlantedModel(t *testing.T) {
	// y = 3 + 2a - 0.5b, exact (no noise).
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{a, b})
			y = append(y, 3+2*a-0.5*b)
		}
	}
	r, err := FitOLS(x, y, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for i, w := range want {
		if math.Abs(r.Coef[i]-w) > 1e-8 {
			t.Errorf("coef[%d] = %g, want %g", i, r.Coef[i], w)
		}
	}
	if r2 := r.R2(x, y); math.Abs(r2-1) > 1e-9 {
		t.Errorf("R2 = %g, want 1", r2)
	}
	if rmse := r.RMSE(x, y); rmse > 1e-8 {
		t.Errorf("RMSE = %g, want ~0", rmse)
	}
	if got := r.Predict([]float64{10, 2}); math.Abs(got-22) > 1e-8 {
		t.Errorf("Predict = %g, want 22", got)
	}
}

func TestFitOLSWithNoise(t *testing.T) {
	rng := dist.NewNormal(0, 0.1, 99)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := float64(i % 20)
		x = append(x, []float64{a})
		y = append(y, 5+3*a+(rng.Sample()-0.1))
	}
	r, err := FitOLS(x, y, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Coef[1]-3) > 0.05 {
		t.Errorf("slope = %g, want ≈3", r.Coef[1])
	}
	if r2 := r.R2(x, y); r2 < 0.99 {
		t.Errorf("R2 = %g, want ≈1", r2)
	}
}

func TestFitOLSSingular(t *testing.T) {
	// Perfectly collinear features.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, err := FitOLS(x, y, nil); err == nil {
		t.Fatal("collinear features accepted")
	}
}

func TestFitOLSValidation(t *testing.T) {
	if _, err := FitOLS(nil, nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitOLS([][]float64{{1, 2}, {3}}, []float64{1, 2}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FitOLS([][]float64{{1, 2}}, []float64{1}, nil); err == nil {
		t.Error("underdetermined system accepted")
	}
}

func TestRegressionString(t *testing.T) {
	r := &Regression{Names: []string{"p"}, Coef: []float64{1.5, -2}}
	if got := r.String(); got != "y = 1.5 + -2·p" {
		t.Fatalf("String = %q", got)
	}
}

func TestMAPE(t *testing.T) {
	r := &Regression{Names: []string{"x"}, Coef: []float64{0, 1}} // y = x
	x := [][]float64{{10}, {20}}
	y := []float64{11, 18} // 10% and 10% error
	if m := r.MAPE(x, y); math.Abs(m-0.0954) > 0.02 {
		t.Fatalf("MAPE = %g, want ≈0.095", m)
	}
	if m := r.MAPE([][]float64{{1}}, []float64{0}); m != 0 {
		t.Fatalf("MAPE with zero target = %g", m)
	}
}

func TestCrossoverTasks(t *testing.T) {
	// Heavy queue waits: pilot should win from small n (crossover early).
	mkQ := func() dist.Dist { return dist.NewLogNormal(600, 0.5, 11) }
	cross := CrossoverTasks(16, 16, time.Minute, mkQ, time.Second, 1024)
	if cross < 0 {
		t.Fatal("pilot never won despite heavy queue waits")
	}
}
