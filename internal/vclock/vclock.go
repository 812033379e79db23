// Package vclock provides the virtual-time substrate that lets gopilot
// reproduce testbed-scale experiments (hours of queue waits, minutes-long
// tasks) in milliseconds of wall time while preserving every ratio the
// paper's figures depend on.
//
// All *modeled* latencies in the simulated infrastructures (batch queue
// waits, VM boot times, data transfers, task service times) are expressed in
// modeled time and slept through a Clock. Three implementations exist:
//
//   - Real: modeled time == wall time (for demos running live).
//   - Scaled: modeled time divided by a factor before sleeping. A factor of
//     1000 makes one modeled second cost one wall millisecond.
//   - Virtual: a conservative virtual-time executor (virtual.go) that
//     advances to the earliest sleeper deadline whenever all registered
//     goroutines are quiescent — modeled sleeps cost zero wall time and
//     same-seed runs are bit-reproducible. Pure CPU kernels escape its
//     single-runner serialization through the deterministic parallel
//     compute phase (compute.go): real cores, same schedule.
//
// Experiment reports always quote modeled durations, so results read like
// the paper's (seconds and minutes, not microseconds).
package vclock

import (
	"context"
	"time"
)

// Clock abstracts the passage of modeled time.
type Clock interface {
	// Now returns the current modeled time.
	Now() time.Time
	// Sleep blocks for the given modeled duration (or until the context is
	// done, whichever comes first) and reports whether the full duration
	// elapsed (false means the context was canceled).
	Sleep(ctx context.Context, d time.Duration) bool
	// Since returns the modeled time elapsed since t.
	Since(t time.Time) time.Duration
}

// Real is a Clock backed directly by wall time.
type Real struct{}

// NewReal returns a wall-time clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Scaled is a Clock in which modeled time passes `Factor` times faster than
// wall time: Sleep(d) sleeps d/Factor of wall time, and Now advances by
// Factor modeled units per wall unit. It is the workhorse for experiments.
type Scaled struct {
	factor float64
	epoch  time.Time // modeled epoch
	start  time.Time // wall time at construction
}

// Epoch is the fixed modeled epoch shared by Scaled and (by convention)
// Virtual clocks, so timestamps agree across clock modes and runs. It is
// the arXiv v2 date of the paper.
var Epoch = time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)

// NewScaled creates a scaled clock. factor must be >= 1; the modeled epoch
// is fixed for reproducible timestamps across runs.
func NewScaled(factor float64) *Scaled {
	if factor < 1 {
		factor = 1
	}
	return &Scaled{
		factor: factor,
		epoch:  Epoch,
		start:  time.Now(),
	}
}

// Factor returns the speed-up factor.
func (c *Scaled) Factor() float64 { return c.factor }

// Now implements Clock.
func (c *Scaled) Now() time.Time {
	wall := time.Since(c.start)
	return c.epoch.Add(time.Duration(float64(wall) * c.factor))
}

// Since implements Clock.
func (c *Scaled) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep implements Clock. The wall duration is the modeled duration
// divided by the factor, not floored: a 1µs floor here used to inflate
// dense sub-resolution modeled sleeps by up to 1000× at high factors,
// skewing short-task exhibits. Sub-nanosecond remainders round to a 1ns
// timer, which still yields the scheduler so ordering remains plausible.
func (c *Scaled) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	wall := time.Duration(float64(d) / c.factor)
	if wall <= 0 {
		wall = time.Nanosecond
	}
	t := time.NewTimer(wall)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

var (
	_ Clock = Real{}
	_ Clock = (*Scaled)(nil)
)
