// Command perfbench is gopilot's repository benchmark: one seeded command
// that runs a named workload as a closed batch on the virtual-time
// executor, checks the outputs against a reference, and prints every
// end-to-end metric by name and unit (or, with --trace 1, the per-layer
// metrics of a traced run).
//
// Usage:
//
//	perfbench --workload stream-bulk --seed 1 --seconds 10 --trace 0
//
// Modeled times are outputs of the simulator, not costs: they feed a
// fingerprint that must repeat exactly for a seed. The costs measured are
// wall time, CPU and memory to reach a verified result. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/experiments"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (medians over iterations).
var endToEnd = []metricDef{
	{"items_per_s", "items/s"},
	{"setup_s", "s"},
	{"cpu_us_per_item", "us"},
	{"allocs_per_item", "count"},
	{"alloc_bytes_per_item", "B"},
	{"heap_peak_mb", "MiB"},
}

// cpuLayers are the layers whose share of CPU profile samples a traced
// run reports as <layer>.cpu_share.
var cpuLayers = []string{"vclock", "streaming", "core", "plan", "saga", "infra", "mapreduce", "apps", "dist", "runtime", "bench"}

// perLayer are the metrics of a traced run. Each is printed on every
// workload; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"vclock.decisions_per_item", "count"},
		{"vclock.stalls", "count"},
		{"vclock.sleepers_peak", "count"},
		{"vclock.participants_peak", "count"},
		{"streaming.publish_calls", "count"},
		{"streaming.publish_wall_us_p50", "us"},
		{"streaming.publish_wall_us_p99", "us"},
		{"streaming.publish_wait_modeled_s", "s"},
		{"streaming.fetch_calls", "count"},
		{"streaming.fetch_msgs_per_call", "count"},
		{"streaming.fetch_empty_frac", "ratio"},
		{"streaming.fetch_wall_us_p50", "us"},
		{"streaming.commit_calls", "count"},
		{"streaming.commit_wall_us_p50", "us"},
		{"streaming.acked_advances_per_kmsg", "count"},
		{"streaming.resident_peak_bytes", "B"},
		{"streaming.handoffs", "count"},
		{"streaming.repairs", "count"},
		{"streaming.handler_us_per_msg", "us"},
		{"metrics.summary_ms", "ms"},
		{"metrics.summary_alloc_mb", "MiB"},
		{"core.submit_ms", "ms"},
		{"core.attempts_per_unit", "count"},
		{"core.queue_depth_peak", "count"},
		{"mapreduce.map_us_per_kword", "us"},
		{"mapreduce.combine_us_per_kword", "us"},
		{"mapreduce.reduce_us_per_kword", "us"},
		{"mapreduce.emits_per_word", "count"},
		{"data.put_ms", "ms"},
		{"data.bytes_moved", "B"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"trace.overhead_frac", "ratio"},
	}
	for _, l := range cpuLayers {
		ms = append(ms, metricDef{l + ".cpu_share", "ratio"})
	}
	return ms
}()

// options are fault-injection hooks for the benchmark's own tests.
type options struct {
	// wrapBus decorates the Bus the producer and the group use.
	wrapBus func(streaming.Bus) streaming.Bus
	// mutateRef edits the wordcount reference before comparison.
	mutateRef func(map[string]int)
}

// env is one built testbed, ready to run its closed batch.
type env struct {
	v     *vclock.Virtual
	items int
	probe *probe
	run   func(ctx context.Context) (outcome, error)
	close func()
}

// outcome is what a run verified, plus traced per-layer values.
type outcome struct {
	attempted, failed int
	fp                fingerprint
	layers            map[string]float64
	// verify, when set, runs the benchmark-side reference comparison
	// after the measured phase and returns further attempted/failed
	// checks.
	verify func() (attempted, failed int)
}

type setupFunc func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error)

type workload struct {
	name  string
	setup setupFunc
}

var workloads = []workload{
	{"stream-bulk", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
		return setupStream(ctx, seed, bulkShape, tr, o)
	}},
	{"stream-small", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
		return setupStream(ctx, seed, smallShape, tr, o)
	}},
	{"pilot-bag", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
		return setupBag(ctx, seed, bagDefault, tr, o)
	}},
	{"mapreduce-wordcount", func(ctx context.Context, seed int64, tr *tracer, o options) (*env, error) {
		return setupWordcount(ctx, seed, wcDefault, tr, o)
	}},
}

// newTestbed builds the simulated testbed on the virtual executor; a
// traced run also records the executor's scheduling decisions.
func newTestbed(seed int64, tr *tracer) *experiments.Testbed {
	tb := experiments.NewTestbed(experiments.TestbedConfig{Mode: experiments.ClockVirtual, QueueWaitMean: 5, Seed: seed})
	if tr != nil {
		tr.v = tb.Virtual
		tb.Virtual.StartRecorder(vclock.RecorderConfig{Ring: 1})
	}
	return tb
}

func attemptsPerUnit(mgr *core.Manager) float64 {
	units := mgr.Units()
	if len(units) == 0 {
		return 0
	}
	n := 0
	for _, u := range units {
		n += u.Attempts()
	}
	return float64(n) / float64(len(units))
}

// iteration is one closed batch: built, run to completion and verified.
type iteration struct {
	traced            bool
	setup, run        time.Duration
	cpu               time.Duration
	allocs, bytes     uint64
	heapPeak          uint64
	items             int
	attempted, failed int
	fp                fingerprint
	layers            map[string]float64
	err               error
}

// iterTimeout bounds one iteration in wall time, so a hung run fails
// instead of hanging the benchmark.
const iterTimeout = 100 * time.Second

func iterate(w workload, seed int64, tr *tracer, o options) iteration {
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), iterTimeout)
	defer cancel()
	it := iteration{traced: tr != nil}
	t0 := time.Now()
	e, err := w.setup(ctx, seed, tr, o)
	it.setup = time.Since(t0)
	if err != nil {
		it.err = fmt.Errorf("setup: %w", err)
		return it
	}
	defer e.close()
	it.items = e.items

	stopWatch := watchdog(e.v, cancel)
	before := takeSnapshot()
	out, err := e.run(ctx)
	after := takeSnapshot()
	stopWatch()

	it.run = after.wall.Sub(before.wall)
	it.cpu = after.cpu - before.cpu
	it.allocs = after.allocs - before.allocs
	it.bytes = after.allocBytes - before.allocBytes
	it.heapPeak = e.probe.peak()
	if err != nil {
		it.err = err
		it.attempted, it.failed = e.items, e.items
	} else {
		it.attempted, it.failed, it.fp = out.attempted, out.failed, out.fp
		if out.verify != nil {
			a, f := out.verify()
			it.attempted += a
			it.failed += f
		}
	}
	stalls := e.v.Stalls()
	it.failed += int(stalls)
	if tr != nil {
		l := out.layers
		if l == nil {
			l = map[string]float64{}
		}
		l["vclock.decisions_per_item"] = float64(e.v.RecorderState().Decisions) / float64(e.items)
		l["vclock.stalls"] = float64(stalls)
		l["vclock.sleepers_peak"] = float64(tr.sleepersPeak.load())
		l["vclock.participants_peak"] = float64(tr.participantsPeak.load())
		l["core.queue_depth_peak"] = float64(tr.queuePeak.load())
		l["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
		if busy := after.busyCPU - before.busyCPU; busy > 0 {
			l["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / busy
		}
		it.layers = l
	}
	return it
}

// watchdog cancels the run once the executor reports a stall: every
// participant parked with nothing sleeping is a deadlock only an
// external signal can break, and the cancellation is that signal.
func watchdog(v *vclock.Virtual, cancel context.CancelFunc) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if v.Stalls() > 0 {
					cancel()
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // traced runs write the last traced iteration's spans here
}

// report aggregates a run's iterations.
type report struct {
	iters             []iteration // measured iterations (warm-up excluded)
	attempted, failed int
	fp                fingerprint
	fpMismatch        int
	errs              []string
	cpuSamples        map[string]int64
}

// minIterations is the least number of measured iterations per run.
const minIterations = 4

func measure(w workload, cfg config, o options) (*report, error) {
	rep := &report{cpuSamples: map[string]int64{}}
	start := time.Now()
	var lastTracer *tracer
	for i := 0; ; i++ {
		// Iteration 0 is the warm-up: checked, not timed. A traced run
		// alternates untraced and traced iterations, so the overhead
		// compares like with like.
		traced := cfg.trace && i%2 == 0 && i > 0
		var tr *tracer
		var prof bytes.Buffer
		if traced {
			tr = newTracer()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		it := iterate(w, cfg.seed, tr, o)
		if traced {
			pprof.StopCPUProfile()
			if err := addProfile(prof.Bytes(), rep.cpuSamples); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			lastTracer = tr
		}
		rep.attempted += it.attempted
		rep.failed += it.failed
		if it.err != nil {
			rep.errs = append(rep.errs, it.err.Error())
			break
		}
		if i == 0 {
			rep.fp = it.fp
		} else {
			if it.fp != rep.fp {
				rep.fpMismatch++
				rep.failed++
			}
			rep.iters = append(rep.iters, it)
		}
		if i >= minIterations && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	if lastTracer != nil && cfg.spans != "" {
		if err := lastTracer.writeSpans(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return rep, nil
}

// endToEndValues takes the medians over the untraced iterations.
func (r *report) endToEndValues() map[string]float64 {
	var ips, setup, cpu, allocs, bytes, heap []float64
	for _, it := range r.iters {
		if it.traced {
			continue
		}
		n := float64(it.items)
		ips = append(ips, n/it.run.Seconds())
		setup = append(setup, it.setup.Seconds())
		cpu = append(cpu, float64(it.cpu)/1e3/n)
		allocs = append(allocs, float64(it.allocs)/n)
		bytes = append(bytes, float64(it.bytes)/n)
		heap = append(heap, float64(it.heapPeak)/(1<<20))
	}
	return map[string]float64{
		"items_per_s":          median(ips),
		"setup_s":              median(setup),
		"cpu_us_per_item":      median(cpu),
		"allocs_per_item":      median(allocs),
		"alloc_bytes_per_item": median(bytes),
		"heap_peak_mb":         median(heap),
	}
}

// perLayerValues takes the medians over the traced iterations, the CPU
// shares of the pooled profile, and the tracing overhead.
func (r *report) perLayerValues() map[string]float64 {
	per := map[string][]float64{}
	var tracedIPS, plainIPS []float64
	for _, it := range r.iters {
		ips := float64(it.items) / it.run.Seconds()
		if !it.traced {
			plainIPS = append(plainIPS, ips)
			continue
		}
		tracedIPS = append(tracedIPS, ips)
		for k, v := range it.layers {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = median(per[m.name])
	}
	var total int64
	for _, n := range r.cpuSamples {
		total += n
	}
	if total > 0 {
		for _, l := range cpuLayers {
			out[l+".cpu_share"] = float64(r.cpuSamples[l]) / float64(total)
		}
	}
	if p := median(plainIPS); p > 0 {
		out["trace.overhead_frac"] = 1 - median(tracedIPS)/p
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "wall seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "traced runs: span file (default .bench_build/perfbench/spans-<workload>-<seed>.tsv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.tsv", cfg.workload, cfg.seed))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	rep, err := measure(*w, cfg, options{})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return printReport(stdout, cfg, rep)
}

func printReport(stdout io.Writer, cfg config, rep *report) int {
	traced := 0
	for _, it := range rep.iters {
		if it.traced {
			traced++
		}
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%v go=%s nproc=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "perfbench iterations=%d untraced=%d traced=%d (plus 1 warm-up) fingerprint=%016x mismatches=%d\n",
		len(rep.iters), len(rep.iters)-traced, traced, uint64(rep.fp), rep.fpMismatch)
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(stdout, "perfbench attempted=%d failed=%d failed_frac=%g\n", rep.attempted, rep.failed, frac)
	for _, e := range rep.errs {
		fmt.Fprintln(stdout, "perfbench error:", e)
	}
	defs, vals := endToEnd, rep.endToEndValues()
	if cfg.trace {
		defs, vals = perLayer, rep.perLayerValues()
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "perfbench %-36s %14.6g %s\n", m.name, v, m.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stdout, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
