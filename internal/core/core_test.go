package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra/hpc"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// fastClock returns a virtual clock with the test goroutine adopted as a
// participant until the test ends.
func fastClock(t *testing.T) *vclock.Virtual {
	v := vclock.NewVirtual(vclock.Epoch)
	v.Adopt()
	t.Cleanup(v.Leave)
	return v
}

// testEnv builds a manager over a local service and an HPC simulator.
type testEnv struct {
	clock   *vclock.Virtual
	reg     *saga.Registry
	cluster *hpc.Cluster
	mgr     *Manager
}

func newEnv(t *testing.T, cfg Config, hpcCfg hpc.Config) *testEnv {
	t.Helper()
	clock := fastClock(t)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 64, clock))
	hpcCfg.Clock = clock
	if hpcCfg.Name == "" {
		hpcCfg.Name = "hpcA"
	}
	cluster := hpc.New(hpcCfg)
	reg.Register(saga.NewHPCService(cluster, clock))
	cfg.Registry = reg
	cfg.Clock = clock
	mgr := NewManager(cfg)
	t.Cleanup(func() {
		mgr.Close()
		cluster.Shutdown()
	})
	return &testEnv{clock: clock, reg: reg, cluster: cluster, mgr: mgr}
}

func quickUnit(name string, d time.Duration) UnitDescription {
	return UnitDescription{
		Name: name,
		Run: func(ctx context.Context, tc TaskContext) error {
			if !tc.Sleep(ctx, d) {
				return ctx.Err()
			}
			return nil
		},
	}
}

func TestUnitRunsOnLocalPilot(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	p, err := env.mgr.SubmitPilot(PilotDescription{Name: "p", Resource: "local://lh", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	u, err := env.mgr.SubmitUnit(quickUnit("u", time.Second))
	if err != nil {
		t.Fatal(err)
	}
	state, err := u.Wait(context.Background())
	if state != UnitDone || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if u.Pilot() != p {
		t.Errorf("unit bound to %v, want %v", u.Pilot(), p)
	}
	if u.Attempts() != 1 {
		t.Errorf("attempts = %d, want 1", u.Attempts())
	}
	if u.Runtime() <= 0 {
		t.Errorf("runtime = %v, want > 0", u.Runtime())
	}
}

func TestLateBindingUnitsBeforePilot(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 2, CoresPerNode: 4})
	// Submit units first: the decoupling of workload and resource
	// acquisition is the essence of the pilot-abstraction.
	units, err := env.mgr.SubmitUnits([]UnitDescription{
		quickUnit("a", time.Second), quickUnit("b", time.Second), quickUnit("c", time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if env.mgr.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d, want 3", env.mgr.QueueDepth())
	}
	if _, err := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 8, Walltime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if s, err := u.Wait(context.Background()); s != UnitDone {
			t.Fatalf("unit %s state=%v err=%v", u.ID(), s, err)
		}
	}
}

func TestWaitAll(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 8})
	for i := 0; i < 16; i++ {
		env.mgr.SubmitUnit(quickUnit(fmt.Sprint(i), 500*time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, u := range env.mgr.Units() {
		if u.State() != UnitDone {
			t.Errorf("unit %s state = %v", u.ID(), u.State())
		}
	}
}

func TestWaitAllHonorsContext(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	// No pilot: the unit can never run.
	env.mgr.SubmitUnit(quickUnit("stuck", time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env.clock.Go(func() {
		env.clock.Sleep(context.Background(), time.Minute)
		cancel()
	})
	if err := env.mgr.WaitAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestSlotAccountingNeverOversubscribes(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 4})
	var mu sync.Mutex
	running, peak := 0, 0
	for i := 0; i < 32; i++ {
		env.mgr.SubmitUnit(UnitDescription{
			Cores: 2,
			Run: func(ctx context.Context, tc TaskContext) error {
				mu.Lock()
				running += tc.Cores
				if running > peak {
					peak = running
				}
				mu.Unlock()
				tc.Sleep(ctx, 200*time.Millisecond)
				mu.Lock()
				running -= tc.Cores
				mu.Unlock()
				return nil
			},
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	if peak > 4 {
		t.Fatalf("peak cores in use = %d, exceeds pilot capacity 4", peak)
	}
}

func TestUnitTooLargeForAnyPilotStaysPending(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	u, _ := env.mgr.SubmitUnit(UnitDescription{Cores: 8, Run: func(ctx context.Context, tc TaskContext) error { return nil }})
	env.clock.Sleep(context.Background(), time.Minute)
	if s := u.State(); s != UnitPending {
		t.Fatalf("state = %v, want Pending (no pilot large enough)", s)
	}
}

func TestFailedUnit(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	boom := errors.New("boom")
	u, _ := env.mgr.SubmitUnit(UnitDescription{Run: func(context.Context, TaskContext) error { return boom }})
	state, err := u.Wait(context.Background())
	if state != UnitFailed || !errors.Is(err, boom) {
		t.Fatalf("state=%v err=%v", state, err)
	}
}

func TestCancelPendingUnit(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	u, _ := env.mgr.SubmitUnit(quickUnit("c", time.Second)) // no pilot yet
	env.mgr.CancelUnit(u)
	state, _ := u.Wait(context.Background())
	if state != UnitCanceled {
		t.Fatalf("state = %v, want Canceled", state)
	}
	if env.mgr.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d, want 0", env.mgr.QueueDepth())
	}
}

func TestCancelRunningUnit(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	started := vclock.NewEvent(env.clock)
	u, _ := env.mgr.SubmitUnit(UnitDescription{Run: func(ctx context.Context, tc TaskContext) error {
		started.Fire()
		tc.Sleep(ctx, 24*time.Hour)
		return ctx.Err()
	}})
	started.Wait(context.Background())
	env.mgr.CancelUnit(u)
	state, _ := u.Wait(context.Background())
	if state != UnitCanceled {
		t.Fatalf("state = %v, want Canceled", state)
	}
}

func TestPilotWalltimeRequeuesUnits(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 4, CoresPerNode: 4})
	// Short-walltime pilot dies mid-unit; a second healthy pilot picks the
	// unit up again (MaxRetries=2).
	env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: 5 * time.Second})
	started := vclock.NewEvent(env.clock)
	var attempts atomic.Int32
	u, _ := env.mgr.SubmitUnit(UnitDescription{
		MaxRetries: 2,
		Run: func(ctx context.Context, tc TaskContext) error {
			n := attempts.Add(1)
			if n == 1 {
				started.Fire()
				// First attempt outlives the pilot walltime.
				tc.Sleep(ctx, time.Hour)
				return ctx.Err()
			}
			return nil
		},
	})
	// The healthy pilot must not exist until the first attempt is running
	// on the doomed one — otherwise the scheduler can start the unit
	// directly on it, no walltime kill happens, and the unit completes in
	// one attempt.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !started.Wait(ctx) {
		t.Fatal("first attempt never started inside the short walltime")
	}
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 4})
	state, err := u.Wait(ctx)
	if state != UnitDone {
		t.Fatalf("state=%v err=%v, want Done after retry", state, err)
	}
	if got := attempts.Load(); got < 2 {
		t.Fatalf("attempts = %d, want >= 2", got)
	}
}

func TestPilotWalltimeFailsUnitWithoutRetries(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 4, CoresPerNode: 4})
	env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: 2 * time.Second})
	u, _ := env.mgr.SubmitUnit(UnitDescription{
		Run: func(ctx context.Context, tc TaskContext) error {
			tc.Sleep(ctx, time.Hour)
			return ctx.Err()
		},
	})
	state, err := u.Wait(context.Background())
	if state != UnitFailed {
		t.Fatalf("state=%v err=%v, want Failed (no retries)", state, err)
	}
}

func TestMultiplePilotsShareQueue(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 4, CoresPerNode: 4})
	p1, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 4})
	p2, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: time.Hour})
	for i := 0; i < 24; i++ {
		env.mgr.SubmitUnit(quickUnit(fmt.Sprint(i), 500*time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.mgr.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	if p1.UnitsCompleted() == 0 || p2.UnitsCompleted() == 0 {
		t.Errorf("units not spread: p1=%d p2=%d", p1.UnitsCompleted(), p2.UnitsCompleted())
	}
	if p1.UnitsCompleted()+p2.UnitsCompleted() != 24 {
		t.Errorf("total = %d, want 24", p1.UnitsCompleted()+p2.UnitsCompleted())
	}
}

func TestPilotStartupTimeMeasured(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{Nodes: 1, CoresPerNode: 4, QueueWait: dist.Constant(10)})
	p, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://hpcA", Cores: 4, Walltime: time.Hour})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", 0))
	u.Wait(context.Background())
	if st := p.StartupTime(); st < 8*time.Second {
		t.Errorf("startup = %v, want ≈10s (queue wait)", st)
	}
}

func TestUnitStateStrings(t *testing.T) {
	want := map[UnitState]string{
		UnitNew: "New", UnitPending: "Pending", UnitScheduled: "Scheduled",
		UnitStaging: "Staging", UnitRunning: "Running", UnitDone: "Done",
		UnitFailed: "Failed", UnitCanceled: "Canceled",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if !UnitDone.Terminal() || UnitRunning.Terminal() {
		t.Error("Terminal() wrong")
	}
	wantP := map[PilotState]string{
		PilotPending: "Pending", PilotRunning: "Running", PilotDone: "Done",
		PilotFailed: "Failed", PilotCanceled: "Canceled",
	}
	for s, w := range wantP {
		if s.String() != w {
			t.Errorf("pilot %d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.Close()
	if _, err := env.mgr.SubmitUnit(quickUnit("x", 0)); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("err = %v, want ErrManagerClosed", err)
	}
	if _, err := env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 1}); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("err = %v, want ErrManagerClosed", err)
	}
}

func TestCloseCancelsPendingUnits(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", time.Second)) // no pilot
	env.mgr.Close()
	if s := u.State(); s != UnitCanceled {
		t.Fatalf("state = %v, want Canceled after Close", s)
	}
}

func TestUnknownResourceRejected(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	if _, err := env.mgr.SubmitPilot(PilotDescription{Resource: "hpc://nowhere", Cores: 1}); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestNilRunRejected(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	if _, err := env.mgr.SubmitUnit(UnitDescription{}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestOnUnitChangeObservesLifecycle(t *testing.T) {
	var mu sync.Mutex
	seen := map[UnitState]bool{}
	env := newEnv(t, Config{OnUnitChange: func(_ *ComputeUnit, s UnitState) {
		mu.Lock()
		seen[s] = true
		mu.Unlock()
	}}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", 100*time.Millisecond))
	u.Wait(context.Background())
	mu.Lock()
	defer mu.Unlock()
	for _, s := range []UnitState{UnitPending, UnitScheduled, UnitRunning, UnitDone} {
		if !seen[s] {
			t.Errorf("state %v not observed", s)
		}
	}
}

func TestUnitMetricsSummaries(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 8})
	for i := 0; i < 8; i++ {
		env.mgr.SubmitUnit(quickUnit(fmt.Sprint(i), time.Second))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	env.mgr.WaitAll(ctx)
	w, r, tt := env.mgr.UnitMetrics()
	if w.N != 8 || r.N != 8 || tt.N != 8 {
		t.Fatalf("sample sizes = %d/%d/%d, want 8", w.N, r.N, tt.N)
	}
	if r.Mean < 0.5 {
		t.Errorf("mean runtime = %gs, want ≈1s", r.Mean)
	}
	if tt.Mean < r.Mean {
		t.Errorf("turnaround %g < runtime %g", tt.Mean, r.Mean)
	}
}

func TestGracefulShutdownEndsPilotDone(t *testing.T) {
	env := newEnv(t, Config{}, hpc.Config{})
	p, _ := env.mgr.SubmitPilot(PilotDescription{Resource: "local://lh", Cores: 2})
	u, _ := env.mgr.SubmitUnit(quickUnit("x", 200*time.Millisecond))
	u.Wait(context.Background())
	p.Shutdown()
	state, err := p.Wait(context.Background())
	if state != PilotDone || err != nil {
		t.Fatalf("state=%v err=%v, want Done", state, err)
	}
}
