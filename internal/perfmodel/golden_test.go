package perfmodel

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gopilot/internal/dist"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// modelGrid renders the seeded model outputs over a fixed grid of
// configurations: DirectSubmissionSim (lognormal waits at three CVs and
// two seeds, plus constant waits, which tie), CrossoverTasks (including
// sweeps that never cross and a factory whose seed advances per call, so
// the order of its draws shows) and MaxOfNQuantile. Durations print
// through time.Duration.String and floats with %.17g, so both are exact.
func modelGrid() string {
	var b strings.Builder
	b.WriteString("# DirectSubmissionSim: n slots t | const0 const90.5 | lognormal(600, cv) seed 1, seed 2 for cv = 0, 0.5, 1\n")
	for _, n := range []int{0, 1, 7, 64, 256, 1000} {
		for _, slots := range []int{0, 1, 2, 32, 2000} {
			for _, t := range []time.Duration{0, 37 * time.Millisecond, time.Minute} {
				fmt.Fprintf(&b, "%d %d %v |", n, slots, t)
				for _, c := range []float64{0, 90.5} {
					fmt.Fprintf(&b, " %v", DirectSubmissionSim(n, slots, t, dist.Constant(c)))
				}
				b.WriteString(" |")
				for _, cv := range []float64{0, 0.5, 1.0} {
					for _, seed := range []int64{1, 2} {
						fmt.Fprintf(&b, " %v", DirectSubmissionSim(n, slots, t, dist.NewLogNormal(600, cv, seed)))
					}
				}
				b.WriteString("\n")
			}
		}
	}

	b.WriteString("# CrossoverTasks: slots cores t overhead maxN qwait | crossover\n")
	type crossCase struct {
		slots, cores int
		t, overhead  time.Duration
		maxN         int
		qwait        string
		mkQwait      func() dist.Dist
	}
	fixed := func(mean, cv float64, seed int64) func() dist.Dist {
		return func() dist.Dist { return dist.NewLogNormal(mean, cv, seed) }
	}
	advancing := func(mean, cv float64, from int64) func() dist.Dist {
		seed := from
		return func() dist.Dist { seed++; return dist.NewLogNormal(mean, cv, seed) }
	}
	constant := func(v float64) func() dist.Dist {
		return func() dist.Dist { return dist.Constant(v) }
	}
	cases := []crossCase{
		{16, 16, time.Minute, time.Second, 1024, "lognormal(600,0.5,11)", fixed(600, 0.5, 11)},
		{16, 16, time.Minute, time.Second, 1024, "lognormal(600,1,seed++ from 0)", advancing(600, 1, 0)},
		{4, 64, time.Minute, time.Second, 1024, "const30", constant(30)},
		{4, 64, time.Minute, time.Second, 1024, "lognormal(30,0.1,seed++ from 1)", advancing(30, 0.1, 1)},
		{2, 64, time.Minute, 100 * time.Millisecond, 4096, "lognormal(600,0.05,seed++ from 1)", advancing(600, 0.05, 1)},
		{16, 16, time.Minute, time.Second, 1024, "const0", constant(0)},
		{16, 16, time.Minute, time.Second, 0, "lognormal(600,0.5,11)", fixed(600, 0.5, 11)},
	}
	for _, c := range cases {
		fmt.Fprintf(&b, "%d %d %v %v %d %s | %d\n", c.slots, c.cores, c.t, c.overhead, c.maxN, c.qwait,
			CrossoverTasks(c.slots, c.cores, c.t, c.mkQwait, c.overhead, c.maxN))
	}

	b.WriteString("# MaxOfNQuantile: n q draws | lognormal(100, 1, 7)\n")
	for _, n := range []int{0, 1, 64} {
		for _, q := range []float64{0, 0.5, 0.9, 1} {
			for _, draws := range []int{0, 1, 500} {
				fmt.Fprintf(&b, "%d %g %d | %.17g\n", n, q, draws, MaxOfNQuantile(dist.NewLogNormal(100, 1, 7), n, q, draws))
			}
		}
	}
	return b.String()
}

// TestModelGridGolden pins modelGrid to testdata/model_grid.golden, so a
// rewrite of any of the seeded models must reproduce every value exactly.
// Regenerate with `go test ./internal/perfmodel -run Golden -update` only
// for an intended change of a model.
func TestModelGridGolden(t *testing.T) {
	got := modelGrid()
	path := filepath.Join("testdata", "model_grid.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("%s changed:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}
