package yarn

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/dist"
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

func TestRequestAndRelease(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 32, AllocDelay: dist.Constant(0.01), Clock: fastClock(t)})
	defer c.Shutdown()
	cs, err := c.RequestContainers(context.Background(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 4 {
		t.Fatalf("got %d containers, want 4", len(cs))
	}
	if c.FreeCores() != 16 {
		t.Fatalf("FreeCores = %d, want 16", c.FreeCores())
	}
	c.Release(cs)
	if c.FreeCores() != 32 {
		t.Fatalf("FreeCores = %d after release, want 32", c.FreeCores())
	}
}

func TestDoubleReleaseIsIdempotent(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 8, AllocDelay: dist.Constant(0.001), Clock: fastClock(t)})
	defer c.Shutdown()
	cs, _ := c.RequestContainers(context.Background(), 1, 4)
	c.Release(cs)
	c.Release(cs)
	if c.FreeCores() != 8 {
		t.Fatalf("FreeCores = %d, want 8 (no double credit)", c.FreeCores())
	}
}

func TestBlocksUntilCapacity(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "y", TotalCores: 8, AllocDelay: dist.Constant(0.001), Clock: clock})
	defer c.Shutdown()
	first, _ := c.RequestContainers(context.Background(), 2, 4)

	var second []*Container
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		cs, err := c.RequestContainers(context.Background(), 1, 8)
		if err != nil {
			t.Error(err)
		}
		second = cs
	})
	clock.Sleep(context.Background(), time.Minute)
	if done.Fired() {
		t.Fatal("second request should block while capacity is held")
	}
	c.Release(first)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !done.Wait(ctx) {
		t.Fatal("second request never unblocked")
	}
	c.Release(second)
}

func TestTooLargeRejected(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 8, Clock: fastClock(t)})
	defer c.Shutdown()
	if _, err := c.RequestContainers(context.Background(), 3, 4); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestBadRequestRejected(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 8, Clock: fastClock(t)})
	defer c.Shutdown()
	if _, err := c.RequestContainers(context.Background(), 0, 4); err == nil {
		t.Fatal("zero containers accepted")
	}
	if _, err := c.RequestContainers(context.Background(), 1, 0); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestContextCancelWhileWaiting(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "y", TotalCores: 4, AllocDelay: dist.Constant(0.001), Clock: clock})
	defer c.Shutdown()
	held, _ := c.RequestContainers(context.Background(), 1, 4)
	defer c.Release(held)
	ctx, cancel := context.WithCancel(context.Background())
	var err error
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		_, err = c.RequestContainers(ctx, 1, 4)
	})
	clock.Sleep(context.Background(), time.Second)
	cancel()
	done.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestConcurrentRequestsNeverOversubscribe(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "y", TotalCores: 16, AllocDelay: dist.Constant(0.001), Clock: clock})
	defer c.Shutdown()
	wg := vclock.NewGroup(clock)
	inUse, peak := 0, 0
	for i := 0; i < 12; i++ {
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			cs, err := c.RequestContainers(context.Background(), 1, 4)
			if err != nil {
				t.Error(err)
				return
			}
			inUse += 4
			peak = max(peak, inUse)
			clock.Sleep(context.Background(), time.Second)
			inUse -= 4
			c.Release(cs)
		})
	}
	wg.Wait()
	if peak > 16 {
		t.Fatalf("peak cores in use = %d, exceeds capacity 16", peak)
	}
	if c.FreeCores() != 16 {
		t.Fatalf("FreeCores = %d, want 16", c.FreeCores())
	}
}

func TestAllocationAggregates(t *testing.T) {
	c := New(Config{Name: "y", TotalCores: 16, AllocDelay: dist.Constant(0.001), Clock: fastClock(t)})
	defer c.Shutdown()
	cs, _ := c.RequestContainers(context.Background(), 2, 4)
	defer c.Release(cs)
	a := c.Allocation("app1", cs)
	if a.Cores != 8 || len(a.Nodes) != 2 {
		t.Fatalf("alloc = %+v, want 8 cores 2 nodes", a)
	}
}

func TestShutdownUnblocksWaiters(t *testing.T) {
	clock := fastClock(t)
	c := New(Config{Name: "y", TotalCores: 4, AllocDelay: dist.Constant(0.001), Clock: clock})
	held, _ := c.RequestContainers(context.Background(), 1, 4)
	_ = held
	var err error
	done := vclock.NewEvent(clock)
	clock.Go(func() {
		defer done.Fire()
		_, err = c.RequestContainers(context.Background(), 1, 4)
	})
	clock.Sleep(context.Background(), time.Second)
	c.Shutdown()
	done.Wait(context.Background())
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
