package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gopilot/internal/metrics"
)

// renderScrubbed renders a table, dropping the named columns (used for
// E11's makespan_wall_ms, the one deliberately wall-clock-measured cell).
func renderScrubbed(t *metrics.Table, drop ...string) string {
	skip := map[int]bool{}
	for i, c := range t.Columns {
		for _, d := range drop {
			if c == d {
				skip[i] = true
			}
		}
	}
	var b bytes.Buffer
	b.WriteString(t.Title)
	for _, row := range t.Rows {
		b.WriteString("\n")
		for i, cell := range row {
			if skip[i] {
				continue
			}
			b.WriteString(cell)
			b.WriteString(" | ")
		}
	}
	return b.String()
}

// TestSameSeedExhibitsBitIdentical runs every exhibit E1–E13 twice on the
// virtual clock and requires bit-identical output — the ISSUE's acceptance
// criterion that the conservative time-warp extends PR 1's determinism
// from the perfmodel sims to the full concurrent runtime. Measured
// makespans, throughputs, latency quantiles, costs: all must match to the
// last digit.
func TestSameSeedExhibitsBitIdentical(t *testing.T) {
	type exhibit struct {
		id   string
		run  func() (*metrics.Table, []string, error)
		drop []string
	}
	tbl := func(f func() (*metrics.Table, error)) func() (*metrics.Table, []string, error) {
		return func() (*metrics.Table, []string, error) {
			tb, err := f()
			return tb, nil, err
		}
	}
	exhibits := []exhibit{
		{id: "E1_Table1", run: tbl(Table1)},
		{id: "E2_PilotOverhead", run: tbl(func() (*metrics.Table, error) { return PilotOverhead(32) })},
		{id: "E3_RexScaling", run: tbl(RexScaling)},
		{id: "E4_PilotData", run: tbl(PilotData)},
		{id: "E5_MapReduceScaling", run: tbl(MapReduceScaling)},
		{id: "E6_PilotMemory", run: tbl(PilotMemory)},
		{id: "E7_Streaming", run: tbl(func() (*metrics.Table, error) { return Streaming(200) })},
		{id: "E7b_Serverless", run: tbl(func() (*metrics.Table, error) { return ServerlessStreaming(200) })},
		{id: "E8_ThroughputModel", run: func() (*metrics.Table, []string, error) { return ThroughputModel(200) }},
		{id: "E9_LateBinding", run: tbl(LateBinding)},
		{id: "E9b_DynamicScaling", run: tbl(DynamicScaling)},
		{id: "E10_Fig5Loop", run: func() (*metrics.Table, []string, error) { return Fig5Loop(120) }},
		// E11 compares real CPU algorithms; its wall-ms column is the one
		// legitimately nondeterministic cell in the whole evaluation.
		{id: "E11_Ablation", run: tbl(AblationAlgorithm), drop: []string{"makespan_wall_ms"}},
		{id: "E12_EnKF", run: tbl(EnKFAdaptive)},
		{id: "E13_MillionMessages", run: tbl(func() (*metrics.Table, error) { return MillionMessages(40_000) })},
	}
	for _, ex := range exhibits {
		ex := ex
		t.Run(ex.id, func(t *testing.T) {
			render := func() string {
				tb, notes, err := ex.run()
				if err != nil {
					t.Fatalf("%s: %v", ex.id, err)
				}
				return renderScrubbed(tb, ex.drop...) + "\n" + strings.Join(notes, "\n")
			}
			a, b := render(), render()
			if a != b {
				t.Fatalf("same seed, different output:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
		})
	}
}
