// Package perfmodel provides the two modeling families the paper's
// evaluation uses (§V.C, Fig. 4): white-box *analytical* models — pilot
// makespan, the replica-exchange runtime model of Thota et al. [72],
// Amdahl's law — and black-box *statistical* models (ordinary least
// squares) used for streaming-throughput prediction [73]. Experiments
// compare these predictions against the concurrent runtime's measurements.
package perfmodel

import (
	"fmt"
	"slices"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/metrics"
)

// PilotMakespan predicts the modeled makespan of a bag of n identical
// tasks of service time t on a pilot with `cores` slots, including pilot
// startup (queue wait + dispatch) and a per-task management overhead.
//
//	T = startup + ceil(n/cores)·t + n·overhead
//
// The n·overhead term models the manager's serial dispatch cost and
// matches the pilot-overhead characterization of E2.
func PilotMakespan(n, cores int, t, startup, perTaskOverhead time.Duration) time.Duration {
	if n <= 0 || cores <= 0 {
		return 0
	}
	waves := (n + cores - 1) / cores
	return startup + time.Duration(waves)*t + time.Duration(n)*perTaskOverhead
}

// SpeedupCurve evaluates strong scaling of PilotMakespan over core counts.
func SpeedupCurve(n int, t, startup, overhead time.Duration, coreCounts []int) map[int]float64 {
	if len(coreCounts) == 0 {
		return nil
	}
	base := PilotMakespan(n, coreCounts[0], t, startup, overhead)
	out := make(map[int]float64, len(coreCounts))
	for _, c := range coreCounts {
		m := PilotMakespan(n, c, t, startup, overhead)
		if m > 0 {
			out[c] = base.Seconds() / m.Seconds()
		}
	}
	return out
}

// Amdahl returns the classic bound on speedup for a workload with the
// given serial fraction on p workers.
func Amdahl(serialFraction float64, p int) float64 {
	if p <= 0 {
		return 0
	}
	if serialFraction < 0 {
		serialFraction = 0
	}
	if serialFraction > 1 {
		serialFraction = 1
	}
	return 1 / (serialFraction + (1-serialFraction)/float64(p))
}

// RexModel is the analytical replica-exchange runtime model (after Thota
// et al. [72]): M replicas, each needing k cores, run MD cycles on a pilot
// of C cores; each cycle is followed by a synchronous exchange phase.
type RexModel struct {
	// Replicas is the ensemble size M.
	Replicas int
	// CoresPerReplica is k.
	CoresPerReplica int
	// PilotCores is C.
	PilotCores int
	// MD is the per-replica MD phase duration per cycle.
	MD time.Duration
	// Exchange is the synchronous exchange phase per cycle.
	Exchange time.Duration
	// Startup is pilot queue wait + dispatch.
	Startup time.Duration
}

// Concurrency returns how many replicas run simultaneously.
func (m RexModel) Concurrency() int {
	if m.CoresPerReplica <= 0 || m.PilotCores <= 0 {
		return 0
	}
	c := m.PilotCores / m.CoresPerReplica
	if c < 1 {
		return 0
	}
	if c > m.Replicas {
		return m.Replicas
	}
	return c
}

// CycleTime returns the modeled duration of one MD+exchange cycle.
func (m RexModel) CycleTime() time.Duration {
	conc := m.Concurrency()
	if conc == 0 {
		return 0
	}
	waves := (m.Replicas + conc - 1) / conc
	return time.Duration(waves)*m.MD + m.Exchange
}

// Total returns the modeled runtime for the given number of cycles.
func (m RexModel) Total(cycles int) time.Duration {
	return m.Startup + time.Duration(cycles)*m.CycleTime()
}

// Efficiency returns useful MD core-time over total pilot core-time for
// the given number of cycles — the utilization the paper's ensemble
// studies report.
func (m RexModel) Efficiency(cycles int) float64 {
	total := m.Total(cycles)
	if total <= 0 || m.PilotCores <= 0 {
		return 0
	}
	useful := float64(cycles) * float64(m.Replicas) * float64(m.CoresPerReplica) * m.MD.Seconds()
	return useful / (float64(m.PilotCores) * total.Seconds())
}

// DirectSubmissionSim predicts the makespan of running n tasks as
// *individual batch jobs*: every job pays its own sampled queue wait, and
// at most `slots` jobs run concurrently (the user's fair-share allocation;
// slots <= 0 means unbounded). This is the no-pilot baseline of the
// late-binding experiment E9. The qwait distribution must be seeded for
// reproducibility.
//
// Jobs start first-come first-served and all run for t, so they finish
// in start order and job i (in eligibility order) takes the slot job
// i−slots frees:
//
//	start_i = max(eligible_i, start_{i−slots} + t),  T = start_{n−1} + t
//
// A negative sampled wait panics: it is always a modelling bug. A
// negative t counts as zero.
func DirectSubmissionSim(n, slots int, t time.Duration, qwait dist.Dist) time.Duration {
	if n <= 0 {
		return 0
	}
	if slots <= 0 || slots > n {
		slots = n
	}
	t = max(t, 0)
	start := make([]time.Duration, n)
	for i := range start {
		start[i] = time.Duration(qwait.Sample() * float64(time.Second))
		if start[i] < 0 {
			panic(fmt.Sprintf("perfmodel: negative queue wait %v", start[i]))
		}
	}
	slices.Sort(start)
	for i := slots; i < n; i++ {
		start[i] = max(start[i], start[i-slots]+t)
	}
	return start[n-1] + t
}

// PilotSubmissionSim predicts the pilot-based makespan for the same
// workload: one placeholder job pays one queue wait, then n tasks run
// back-to-back on `cores` slots with a per-task dispatch overhead.
func PilotSubmissionSim(n, cores int, t time.Duration, qwait dist.Dist, perTaskOverhead time.Duration) time.Duration {
	startup := time.Duration(qwait.Sample() * float64(time.Second))
	return PilotMakespan(n, cores, t, startup, perTaskOverhead)
}

// CrossoverTasks estimates the smallest task count at which the pilot
// approach beats direct submission, by sweeping n (geometrically) through
// both models: the first doubling n where the pilot wins, 0 if that is
// n = 1, and -1 if direct submission wins throughout the sweep limit.
func CrossoverTasks(slots, cores int, t time.Duration, mkQwait func() dist.Dist, overhead time.Duration, maxN int) int {
	for n := 1; n <= maxN; n *= 2 {
		direct := DirectSubmissionSim(n, slots, t, mkQwait())
		pilot := PilotSubmissionSim(n, cores, t, mkQwait(), overhead)
		if pilot < direct {
			if n == 1 {
				return 0
			}
			return n
		}
	}
	return -1
}

// Percentile of the maximum of n iid samples — a closed-form helper for
// reasoning about direct submission: the expected makespan is governed by
// the max queue wait among n jobs. For a distribution with CDF F, the max
// of n samples has CDF F^n; this estimates its q-quantile empirically.
func MaxOfNQuantile(d dist.Dist, n int, q float64, draws int) float64 {
	if draws <= 0 {
		draws = 200
	}
	xs := make([]float64, draws)
	for i := range xs {
		m := 0.0
		for j := 0; j < n; j++ {
			if s := d.Sample(); s > m {
				m = s
			}
		}
		xs[i] = m
	}
	slices.Sort(xs)
	return metrics.Quantile(xs, q)
}
