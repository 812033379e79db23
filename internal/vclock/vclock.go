// Package vclock provides the virtual-time substrate that lets gopilot
// reproduce testbed-scale experiments (hours of queue waits, minutes-long
// tasks) in milliseconds of wall time while preserving every ratio the
// paper's figures depend on.
//
// All *modeled* latencies in the simulated infrastructures (batch queue
// waits, VM boot times, data transfers, task service times) are expressed in
// modeled time and slept through a Clock. Its one implementation is
// Virtual: a conservative virtual-time executor (virtual.go) that advances
// to the earliest sleeper deadline whenever all registered goroutines are
// quiescent — modeled sleeps cost zero wall time and same-seed runs are
// bit-reproducible. Pure CPU kernels escape its single-runner
// serialization through the deterministic parallel compute phase
// (compute.go): real cores, same schedule.
//
// Experiment reports always quote modeled durations, so results read like
// the paper's (seconds and minutes, not microseconds).
package vclock

import (
	"context"
	"time"
)

// Clock abstracts the passage of modeled time. Components accept a Clock
// so their signatures read as "a source of modeled time"; every Clock
// passed to them must be a *Virtual, which the primitives and helpers in
// this package require.
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

// Epoch is the fixed modeled epoch every Virtual clock in the repository
// starts at, so timestamps agree across runs. It is the arXiv v2 date of
// the paper.
var Epoch = time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)
