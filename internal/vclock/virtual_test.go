package vclock

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

var virtualEpoch = Epoch

// TestVirtualSleepExactElapsed pins that modeled elapsed equals
// requested exactly, down to sub-resolution (sub-µs) durations, and
// costs no modeled overhead between dense sleeps.
func TestVirtualSleepExactElapsed(t *testing.T) {
	c := NewVirtual(virtualEpoch)
	c.Adopt()
	defer c.Leave()
	ctx := context.Background()
	for _, d := range []time.Duration{
		1 * time.Nanosecond,
		100 * time.Nanosecond, // far below any wall-timer resolution
		999 * time.Nanosecond,
		1 * time.Microsecond,
		3 * time.Hour,
	} {
		start := c.Now()
		if !c.Sleep(ctx, d) {
			t.Fatalf("Sleep(%v) interrupted", d)
		}
		if got := c.Since(start); got != d {
			t.Fatalf("Sleep(%v): modeled elapsed = %v", d, got)
		}
	}
	// 10k dense sub-resolution sleeps accumulate exactly, with zero drift.
	start := c.Now()
	for i := 0; i < 10000; i++ {
		c.Sleep(ctx, 100*time.Nanosecond)
	}
	if got, want := c.Since(start), 10000*100*time.Nanosecond; got != want {
		t.Fatalf("dense sleeps: modeled elapsed = %v, want %v", got, want)
	}
}

// TestVirtualSleepCostsNoWallTime checks hours of modeled time replay in
// (milliseconds of) wall time.
func TestVirtualSleepCostsNoWallTime(t *testing.T) {
	c := NewVirtual(virtualEpoch)
	c.Adopt()
	defer c.Leave()
	wall := time.Now()
	if !c.Sleep(context.Background(), 24*365*time.Hour) {
		t.Fatal("sleep interrupted")
	}
	if elapsed := time.Since(wall); elapsed > 5*time.Second {
		t.Fatalf("a modeled year took %v of wall time", elapsed)
	}
}

// runInterleaved spawns n participants with interleaved, overlapping sleep
// patterns and returns the observed wake order with timestamps.
func runInterleaved(n, rounds int) []string {
	c := NewVirtual(virtualEpoch)
	var mu sync.Mutex
	var order []string
	ctx := context.Background()
	done := NewGroup(c)
	c.Adopt()
	for i := 0; i < n; i++ {
		i := i
		done.Add(1)
		c.Go(func() {
			defer done.Done()
			for r := 0; r < rounds; r++ {
				// Overlapping deadlines across goroutines, including exact
				// ties (same product for different (i, r) pairs).
				d := time.Duration((i+1)*(r+1)) * time.Millisecond
				c.Sleep(ctx, d)
				mu.Lock()
				order = append(order, fmt.Sprintf("g%d.r%d@%s", i, r, c.Since(virtualEpoch)))
				mu.Unlock()
			}
		})
	}
	done.Wait()
	c.Leave()
	return order
}

// TestVirtualDeterministicWakeOrder is the -race-clean determinism suite:
// N goroutines with interleaved sleeps observe the same wake order and the
// same modeled timestamps on every run.
func TestVirtualDeterministicWakeOrder(t *testing.T) {
	ref := runInterleaved(8, 6)
	if len(ref) != 8*6 {
		t.Fatalf("observed %d wakes, want %d", len(ref), 8*6)
	}
	for run := 0; run < 5; run++ {
		got := runInterleaved(8, 6)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("run %d diverged at wake %d: %q != %q", run, i, got[i], ref[i])
			}
		}
	}
}

// TestVirtualTieBreak: sleepers with identical deadlines wake in
// Sleep-call order.
func TestVirtualTieBreak(t *testing.T) {
	c := NewVirtual(virtualEpoch)
	var mu sync.Mutex
	var order []int
	done := NewGroup(c)
	c.Adopt()
	for i := 0; i < 5; i++ {
		i := i
		done.Add(1)
		c.Go(func() {
			defer done.Done()
			c.Sleep(context.Background(), time.Second)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	done.Wait()
	c.Leave()
	// Go(i) runs in spawn order, so Sleep-call order is 0..4.
	for i, g := range order {
		if g != i {
			t.Fatalf("tie wake order = %v", order)
		}
	}
}

// TestVirtualCancellationSweep: a cancellation issued by a participant
// takes effect at the modeled instant it was issued — the canceled sleeper
// must not observe a time jump to its original deadline.
func TestVirtualCancellationSweep(t *testing.T) {
	c := NewVirtual(virtualEpoch)
	ctx, cancel := context.WithCancel(context.Background())
	var wokeAt time.Duration
	var full bool
	done := NewGroup(c)
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		full = c.Sleep(ctx, time.Hour)
		wokeAt = c.Since(virtualEpoch)
	})
	c.Adopt()
	c.Sleep(context.Background(), time.Minute)
	cancel()
	done.Wait()
	c.Leave()
	if full {
		t.Fatal("canceled sleep reported full elapse")
	}
	if wokeAt != time.Minute {
		t.Fatalf("canceled sleeper woke at %v, want 1m (no jump to its 1h deadline)", wokeAt)
	}
}

// TestVirtualPrimitivesHandoff exercises Notifier/Event/Sem token handoff
// end to end: a waker's signal must reach parked waiters before time can
// advance past it.
func TestVirtualPrimitivesHandoff(t *testing.T) {
	c := NewVirtual(virtualEpoch)
	n := NewNotifier(c)
	e := NewEvent(c)
	s := NewSem(c, 1)
	ctx := context.Background()
	var consumed int
	done := NewGroup(c)
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		for n.Wait(ctx) {
			consumed++
			if e.Fired() {
				return
			}
		}
	})
	c.Adopt()
	if !s.Acquire(ctx) {
		t.Fatal("sem acquire failed")
	}
	for i := 0; i < 3; i++ {
		n.Set()
		c.Sleep(ctx, time.Second) // quiesce: waiter must have consumed the set
	}
	e.Fire()
	n.Set()
	done.Wait()
	s.Release()
	c.Leave()
	if consumed < 3 {
		t.Fatalf("notifier consumed %d sets, want >= 3", consumed)
	}
	if got := c.Since(virtualEpoch); got != 3*time.Second {
		t.Fatalf("modeled time = %v, want 3s", got)
	}
}

// TestVirtualStallCounter: a world where every participant parks with no
// sleeper records a stall (the deadlock-vs-starvation diagnostic) and
// recovers via external context cancellation.
func TestVirtualStallCounter(t *testing.T) {
	c := NewVirtual(virtualEpoch)
	n := NewNotifier(c)
	ctx, cancel := context.WithCancel(context.Background())
	done := NewGroup(c)
	done.Add(1)
	c.Go(func() {
		defer done.Done()
		n.Wait(ctx)
	})
	// Let the participant park: the world stalls (no driver adopted).
	deadline := time.Now().Add(5 * time.Second)
	for c.Stalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no stall recorded")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // external cancellation must recover the parked waiter
	done.wgWaitExternal(t)
}

// wgWaitExternal waits for the group from outside the scheduled world
// (test-only helper; production code calls Wait as a participant).
func (g *Group) wgWaitExternal(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		n := g.n
		g.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("group never drained")
		}
		time.Sleep(time.Millisecond)
	}
}
