package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gopilot/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestStandaloneExhibitsGolden pins the modeled tables of the exhibits
// that run the streaming plane standalone — E1 (Table1), E7 (Streaming,
// 1500 frames) and E7b (ServerlessStreaming, 1000 frames), the sizes
// cmd/experiments uses — and of E9 (LateBinding, whose model columns
// come from perfmodel) to testdata/*.golden. The same-seed tests only
// compare two runs with each other; this one catches any change to the
// values themselves, so a refactor of the data plane or of the models
// must leave every modeled cell where it was. Regenerate with
// `go test ./internal/experiments -run Golden -update` only for an
// intended change of the model.
func TestStandaloneExhibitsGolden(t *testing.T) {
	exhibits := []struct {
		file string
		run  func() (*metrics.Table, error)
	}{
		{"e1_table1.golden", Table1},
		{"e7_streaming.golden", func() (*metrics.Table, error) { return Streaming(1500) }},
		{"e7b_serverless.golden", func() (*metrics.Table, error) { return ServerlessStreaming(1000) }},
		{"e9_latebinding.golden", LateBinding},
	}
	for _, ex := range exhibits {
		ex := ex
		t.Run(ex.file, func(t *testing.T) {
			tbl, err := ex.run()
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.String()
			path := filepath.Join("testdata", ex.file)
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
		})
	}
}
