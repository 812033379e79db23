package hpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
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

func okPayload(d time.Duration, clock vclock.Clock) infra.Payload {
	return func(ctx context.Context, _ infra.Allocation) error {
		if !clock.Sleep(ctx, d) {
			return ctx.Err()
		}
		return nil
	}
}

func TestJobCompletes(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "test", Nodes: 4, CoresPerNode: 8, Clock: clock})
	defer c.Shutdown()
	j, err := c.Submit(JobSpec{Name: "j1", Nodes: 2, Walltime: time.Hour, Payload: okPayload(10*time.Second, clock)})
	if err != nil {
		t.Fatal(err)
	}
	state, err := j.Wait(context.Background())
	if state != Completed || err != nil {
		t.Fatalf("state=%v err=%v", state, err)
	}
	if j.Runtime() < 5*time.Second {
		t.Errorf("Runtime = %v, want ≥ 5s modeled", j.Runtime())
	}
}

func TestAllocationShape(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "alpha", Nodes: 4, CoresPerNode: 16, Clock: clock})
	defer c.Shutdown()
	var got infra.Allocation
	j, _ := c.Submit(JobSpec{Nodes: 3, Payload: func(_ context.Context, a infra.Allocation) error {
		got = a
		return nil
	}})
	j.Wait(context.Background())
	if got.Cores != 48 {
		t.Errorf("Cores = %d, want 48", got.Cores)
	}
	if len(got.Nodes) != 3 {
		t.Errorf("Nodes = %d, want 3", len(got.Nodes))
	}
	if got.Site != infra.Site("alpha") {
		t.Errorf("Site = %q, want alpha", got.Site)
	}
}

func TestCapacityWaitEmerges(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "cap", Nodes: 1, CoresPerNode: 8, Clock: clock})
	defer c.Shutdown()
	j1, _ := c.Submit(JobSpec{Nodes: 1, Walltime: time.Hour, Payload: okPayload(20*time.Second, clock)})
	j2, _ := c.Submit(JobSpec{Nodes: 1, Walltime: time.Hour, Payload: okPayload(time.Second, clock)})
	j1.Wait(context.Background())
	j2.Wait(context.Background())
	if w := j2.QueueWait(); w < 10*time.Second {
		t.Errorf("j2 queue wait = %v, want ≥ 10s (capacity wait)", w)
	}
}

func TestExogenousQueueWaitApplied(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "qw", Nodes: 8, CoresPerNode: 8, QueueWait: dist.Constant(30), Clock: clock})
	defer c.Shutdown()
	j, _ := c.Submit(JobSpec{Nodes: 1, Payload: okPayload(0, clock)})
	j.Wait(context.Background())
	if w := j.QueueWait(); w < 25*time.Second {
		t.Errorf("queue wait = %v, want ≈30s", w)
	}
}

func TestWalltimeEnforced(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "wt", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer c.Shutdown()
	j, _ := c.Submit(JobSpec{Nodes: 1, Walltime: 5 * time.Second, Payload: okPayload(time.Hour, clock)})
	state, _ := j.Wait(context.Background())
	if state != TimedOut {
		t.Fatalf("state = %v, want TimedOut", state)
	}
	if !errors.Is(j.Err(), context.DeadlineExceeded) {
		t.Errorf("Err = %v, want DeadlineExceeded", j.Err())
	}
}

func TestFailedPayload(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "fail", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer c.Shutdown()
	boom := errors.New("boom")
	j, _ := c.Submit(JobSpec{Nodes: 1, Payload: func(context.Context, infra.Allocation) error { return boom }})
	state, err := j.Wait(context.Background())
	if state != Failed || !errors.Is(err, boom) {
		t.Fatalf("state=%v err=%v, want Failed/boom", state, err)
	}
}

func TestCancelPending(t *testing.T) {
	clock := fastClock(t)
	// Long exogenous delay keeps the job pending.
	c := New(Config{Name: "cp", Nodes: 1, CoresPerNode: 1, QueueWait: dist.Constant(3600), Clock: clock})
	defer c.Shutdown()
	j, _ := c.Submit(JobSpec{Nodes: 1, Payload: okPayload(0, clock)})
	c.Cancel(j)
	state, _ := j.Wait(context.Background())
	if state != Canceled {
		t.Fatalf("state = %v, want Canceled", state)
	}
}

func TestCancelRunning(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "cr", Nodes: 1, CoresPerNode: 1, Clock: clock})
	defer c.Shutdown()
	started := vclock.NewEvent(clock)
	j, _ := c.Submit(JobSpec{Nodes: 1, Payload: func(ctx context.Context, _ infra.Allocation) error {
		started.Fire()
		clock.Sleep(ctx, 24*time.Hour)
		return ctx.Err()
	}})
	started.Wait(context.Background())
	c.Cancel(j)
	state, _ := j.Wait(context.Background())
	if state != Canceled {
		t.Fatalf("state = %v, want Canceled", state)
	}
}

func TestTooLargeRejected(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "big", Nodes: 2, CoresPerNode: 8, Clock: clock})
	defer c.Shutdown()
	_, err := c.Submit(JobSpec{Nodes: 3, Payload: okPayload(0, clock)})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "closed", Nodes: 1, CoresPerNode: 1, Clock: clock})
	c.Shutdown()
	_, err := c.Submit(JobSpec{Nodes: 1, Payload: okPayload(0, clock)})
	if !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("err = %v, want ErrClusterClosed", err)
	}
}

func TestBackfillLetsSmallJobJumpQueue(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "bf", Nodes: 4, CoresPerNode: 1, Backfill: true, Clock: clock})
	defer c.Shutdown()

	// Occupy 3 of 4 nodes for a long time.
	blocker, _ := c.Submit(JobSpec{Name: "blocker", Nodes: 3, Walltime: 200 * time.Second, Payload: okPayload(100*time.Second, clock)})
	// Head job needs all 4 nodes — must wait for the blocker.
	head, _ := c.Submit(JobSpec{Name: "head", Nodes: 4, Walltime: 100 * time.Second, Payload: okPayload(time.Second, clock)})
	// Small short job fits in the idle node and finishes before the
	// blocker's walltime: EASY backfill should run it immediately.
	small, _ := c.Submit(JobSpec{Name: "small", Nodes: 1, Walltime: 10 * time.Second, Payload: okPayload(time.Second, clock)})

	state, err := small.Wait(context.Background())
	if state != Completed {
		t.Fatalf("small job state=%v err=%v", state, err)
	}
	if small.QueueWait() > 50*time.Second {
		t.Errorf("small job waited %v; backfill should start it early", small.QueueWait())
	}
	blocker.Wait(context.Background())
	head.Wait(context.Background())
	if head.QueueWait() < 50*time.Second {
		t.Errorf("head job waited only %v, expected to wait for blocker", head.QueueWait())
	}
}

func TestNoBackfillStrictFCFS(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "fcfs", Nodes: 4, CoresPerNode: 1, Backfill: false, Clock: clock})
	defer c.Shutdown()
	blocker, _ := c.Submit(JobSpec{Nodes: 3, Walltime: 100 * time.Second, Payload: okPayload(50*time.Second, clock)})
	head, _ := c.Submit(JobSpec{Nodes: 4, Walltime: 100 * time.Second, Payload: okPayload(time.Second, clock)})
	small, _ := c.Submit(JobSpec{Nodes: 1, Walltime: 10 * time.Second, Payload: okPayload(time.Second, clock)})
	small.Wait(context.Background())
	// Under strict FCFS the small job cannot start before the head job.
	if small.QueueWait() < 30*time.Second {
		t.Errorf("small job waited %v; FCFS should block it behind head", small.QueueWait())
	}
	blocker.Wait(context.Background())
	head.Wait(context.Background())
}

func TestManyJobsDrainAndUtilization(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "many", Nodes: 4, CoresPerNode: 2, Clock: clock})
	defer c.Shutdown()
	var jobs []*Job
	for i := 0; i < 32; i++ {
		j, err := c.Submit(JobSpec{Nodes: 1, Walltime: time.Minute, Payload: okPayload(2*time.Second, clock)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	completed := 0
	for _, j := range jobs {
		if s, _ := j.Wait(context.Background()); s == Completed {
			completed++
		}
	}
	if completed != 32 {
		t.Fatalf("completed = %d, want 32", completed)
	}
	if u := c.Utilization(); u <= 0 || u > 1.01 {
		t.Errorf("utilization = %g, want (0,1]", u)
	}
	if c.QueueDepth() != 0 || c.RunningJobs() != 0 {
		t.Errorf("cluster not drained: depth=%d running=%d", c.QueueDepth(), c.RunningJobs())
	}
	if c.FreeNodes() != 4 {
		t.Errorf("FreeNodes = %d, want 4", c.FreeNodes())
	}
	if s := c.QueueWaitStats(); s.N != 32 {
		t.Errorf("queue wait samples = %d, want 32", s.N)
	}
}

func TestNilPayloadRejected(t *testing.T) {
	c := New(Config{Name: "nil", Clock: fastClock(t)})
	defer c.Shutdown()
	if _, err := c.Submit(JobSpec{Nodes: 1}); err == nil {
		t.Fatal("nil payload accepted")
	}
}
