// Benchmarks regenerating every table- and figure-shaped exhibit of the
// paper (DESIGN.md index E1–E13). Each benchmark executes the same
// experiment code as `cmd/experiments`; reported ns/op is wall time of one
// full experiment at the benchmark scale factor. Run with:
//
//	go test -bench=. -benchmem
//
// Rendered tables from a representative run are recorded in EXPERIMENTS.md.
package gopilot_test

import (
	"os"
	"runtime"
	"testing"

	"gopilot/internal/experiments"
)

// BenchmarkTable1_Scenarios regenerates Table I (E1): all five application
// scenarios through one Pilot-API.
func BenchmarkTable1_Scenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_PilotOverhead regenerates the pilot startup/overhead
// characterization (E2).
func BenchmarkTable2_PilotOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PilotOverhead(64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_RexScaling regenerates replica-exchange strong scaling
// with the analytical model (E3).
func BenchmarkTable2_RexScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RexScaling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_PilotData regenerates the data-aware vs data-oblivious
// comparison (E4).
func BenchmarkTable2_PilotData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PilotData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_MapReduce regenerates Pilot-Hadoop wordcount strong
// scaling (E5).
func BenchmarkTable2_MapReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MapReduceScaling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_PilotMemory regenerates the iterative K-Means
// memory-vs-disk comparison (E6).
func BenchmarkTable2_PilotMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PilotMemory(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Streaming regenerates the throughput/latency scaling of
// Pilot-Streaming (E7).
func BenchmarkTable2_Streaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Streaming(600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_Serverless regenerates the cluster-vs-serverless stream
// processing comparison (E7b, [73]).
func BenchmarkTable2_Serverless(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ServerlessStreaming(400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_ThroughputModel regenerates the statistical throughput
// model fit + holdout validation (E8).
func BenchmarkTable2_ThroughputModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.ThroughputModel(400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreaming_Million regenerates the million-message data-plane
// exhibit (E13): 10⁶ messages through 8 partitions and a 4→5→4-worker
// consumer group with backpressure. Its ns/op and allocs/op pin the
// segmented zero-copy log's budget — run with -benchmem (make bench), and
// see BENCH_baseline.json's allocs_per_op gate.
func BenchmarkStreaming_Million(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MillionMessages(1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreaming_TenMillion is the 10⁷-message E13 variant: ten times
// BenchmarkStreaming_Million's traffic through the same topology, gated on
// the per-message allocation budget (≤0.08 allocs/msg, measured via
// runtime.MemStats across the whole run, GC included). The point is
// asymptotic: fixed-cost allocations (brokers, worker stacks, series
// growth) amortize to noise at 10⁷ messages, so what remains is the true
// per-message cost of the data plane — a change that reintroduces even a
// fractional per-message allocation fails here long before it trips the
// per-op gate on the 10⁶ exhibit. The budget covers the replicated plane
// (replication 3: every publish batch crosses two paced catch-up links,
// whose park/wake registrations are the dominant per-batch cost — 0.053
// measured vs 0.0093 for the single-copy plane); a per-message copy
// (~5 allocs/msg) still fails by two orders of magnitude. Opt-in because
// one op takes ~10× the Million exhibit's wall time:
//
//	GOPILOT_BENCH_10M=1 go test -bench 'TenMillion' -benchtime 1x -run '^$' .
func BenchmarkStreaming_TenMillion(b *testing.B) {
	if os.Getenv("GOPILOT_BENCH_10M") == "" {
		b.Skip("opt-in: set GOPILOT_BENCH_10M=1 (one op ≈ 10× BenchmarkStreaming_Million)")
	}
	const msgs = 10_000_000
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := experiments.MillionMessages(msgs); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perMsg := float64(after.Mallocs-before.Mallocs) / float64(msgs)
		b.ReportMetric(perMsg, "allocs/msg")
		if perMsg > 0.08 {
			b.Fatalf("allocation budget blown: %.4f allocs/msg > 0.08 (%d allocations for %d messages)",
				perMsg, after.Mallocs-before.Mallocs, int64(msgs))
		}
	}
}

// BenchmarkLateBinding regenerates the direct-vs-pilot comparison (E9).
func BenchmarkLateBinding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LateBinding(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicScaling regenerates the runtime cloud-bursting study
// (E9b, R3 dynamism).
func BenchmarkDynamicScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DynamicScaling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_Loop regenerates the automated build-assess-refine loop
// (E10, Figure 5).
func BenchmarkFig5_Loop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig5Loop(300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Algorithm regenerates the algorithm-vs-scale-out
// ablation (E11).
func BenchmarkAblation_Algorithm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAlgorithm(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnKF_Adaptive regenerates the adaptive EnKF study (E12).
func BenchmarkEnKF_Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EnKFAdaptive(); err != nil {
			b.Fatal(err)
		}
	}
}
