package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gopilot/internal/streaming"
)

// tinyWorkloads are the benchmark's workloads at test size: same
// testbeds, same choreography and checks, a few milliseconds each.
func tinyWorkloads() []workload {
	return []workload{
		{"stream-bulk", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
			return setupStream(ctx, seed, streamShape{messages: 8192, pubMin: 1024, pubMax: 1024, poll: 512}, tr, o)
		}},
		{"stream-small", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
			return setupStream(ctx, seed, streamShape{messages: 2000, pubMin: 12, pubMax: 20, poll: 16, keyed: true}, tr, o)
		}},
		{"pilot-bag", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
			return setupBag(ctx, seed, bagShape{units: 150, meanTask: 30 * time.Second}, tr, o)
		}},
		{"mapreduce-wordcount", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
			return setupWordcount(ctx, seed, wcShape{splits: 4, wordsPerSplit: 500, vocab: 100, reducers: 2}, tr, o)
		}},
	}
}

func tiny(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range tinyWorkloads() {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// lastJSON parses the result line a run prints last.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestTinyWorkloadsPassAndPrintEveryMetric(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, seconds: 0.001, trace: traced}
			if traced {
				cfg.spans = t.TempDir() + "/spans.tsv"
			}
			rep, err := measure(w, cfg, options{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			code := printReport(&out, cfg, rep)
			r := lastJSON(t, out.String())
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: code %d, result %+v\n%s", w.name, traced, code, r, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}

func TestSameSeedSameFingerprint(t *testing.T) {
	for _, w := range tinyWorkloads() {
		a := iterate(w, 11, nil, options{})
		b := iterate(w, 11, newTracer(), options{})
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v / %v", w.name, a.err, b.err)
		}
		if a.fp != b.fp {
			t.Errorf("%s: untraced fingerprint %x, traced %x: tracing changed modeled output", w.name, a.fp, b.fp)
		}
	}
}

// dropBus loses the first message of the first multi-message fetch.
type dropBus struct {
	streaming.Bus
	dropped atomic.Bool
}

func (b *dropBus) FetchOrWait(ctx context.Context, topic string, parts []int, offsets []int64, start, max int) (int, []streaming.Message, error) {
	i, msgs, err := b.Bus.FetchOrWait(ctx, topic, parts, offsets, start, max)
	if err == nil && len(msgs) > 1 && b.dropped.CompareAndSwap(false, true) {
		msgs = msgs[1:]
	}
	return i, msgs, err
}

func TestDroppedMessageIsCaught(t *testing.T) {
	for _, name := range []string{"stream-bulk", "stream-small"} {
		o := options{wrapBus: func(b streaming.Bus) streaming.Bus { return &dropBus{Bus: b} }}
		it := iterate(tiny(t, name), 3, nil, o)
		if it.err != nil {
			t.Fatalf("%s: %v", name, it.err)
		}
		if it.failed == 0 {
			t.Errorf("%s: a dropped message went unnoticed (attempted %d)", name, it.attempted)
		}
	}
}

func TestCorruptedReferenceIsCaught(t *testing.T) {
	o := options{mutateRef: func(want map[string]int) {
		for k := range want {
			want[k]++
			return
		}
	}}
	it := iterate(tiny(t, "mapreduce-wordcount"), 3, nil, o)
	if it.err != nil {
		t.Fatal(it.err)
	}
	if it.failed != 1 {
		t.Errorf("corrupted reference count: failed = %d, want 1", it.failed)
	}
}

func TestBadArgumentsExitNonZeroWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "pilot-bag", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: code %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: json %+v, program %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gopilot/internal/plan.(*Planner).Plan":             "plan",
		"gopilot/internal/infra/hpc.(*Cluster).run":         "infra",
		"gopilot/internal/apps/wordcount.Map":               "apps",
		"gopilot/internal/vclock.(*Virtual).scheduleLocked": "vclock",
		"main.setupStream.func2":                            "bench",
		"runtime.mallocgc":                                  "",
		"slices.SortStableFunc[...]":                        "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
