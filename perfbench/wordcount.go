package main

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"gopilot/internal/apps/wordcount"
	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/experiments"
	"gopilot/internal/mapreduce"
)

// wcShape sizes the MapReduce wordcount workload.
type wcShape struct {
	splits, wordsPerSplit, vocab, reducers int
}

var wcDefault = wcShape{splits: 32, wordsPerSplit: 12_000, vocab: 5000, reducers: 4}

// corpusSite holds the corpus; the job runs on the yarn site, so every
// map task stages its split across the wide-area link first.
const corpusSite = "stampede"

func setupWordcount(ctx context.Context, seed int64, sh wcShape, tr *tracer, o options) (*env, error) {
	tb := newTestbed(seed, tr)
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "mr", Resource: "yarn://yarn", Cores: 16, Walltime: 12 * time.Hour,
	}); err != nil {
		tb.Close()
		return nil, err
	}
	corpus := wordcount.GenerateCorpus(sh.splits, sh.wordsPerSplit, sh.vocab, tb.Root.Named("corpus"))
	ids := make([]string, sh.splits)
	for i, s := range corpus {
		ids[i] = fmt.Sprintf("wc-split-%d", i)
		var w0, m0 time.Time
		if tr != nil {
			w0, m0 = tr.begin()
		}
		if err := tb.Data.Put(ctx, data.Unit{ID: ids[i], Content: []byte(s), LogicalSize: 128e6, Site: corpusSite}); err != nil {
			tb.Close()
			return nil, err
		}
		if tr != nil {
			tr.end(opPut, 0, w0, m0)
		}
	}
	words := sh.splits * sh.wordsPerSplit
	pr := newProbe(words)
	job := wordcount.Config("wc", ids, sh.reducers)
	// Production-scale modeled compute per task, as in the Table II exhibit.
	job.MapCost = 30 * time.Second
	job.ReduceCost = 20 * time.Second
	userMap := job.Map
	if tr != nil {
		userMap = timedMapper(userMap, tr)
		job.Combine = timedReducer(job.Combine, tr, &tr.combineNs)
		job.Reduce = timedReducer(job.Reduce, tr, &tr.reduceNs)
		pr.gauge = tr.gauges(mgr)
	}
	// Progress is counted per split as its map call returns.
	job.Map = func(ctx context.Context, key, value string, emit func(k, v string)) error {
		err := userMap(ctx, key, value, emit)
		pr.add(int64(sh.wordsPerSplit))
		return err
	}
	run := func(ctx context.Context) (outcome, error) {
		return runWordcount(ctx, tb, mgr, job, corpus, words, o, tr)
	}
	return &env{v: tb.Virtual, items: words, probe: pr, run: run, close: tb.Close}, nil
}

func runWordcount(ctx context.Context, tb *experiments.Testbed, mgr *core.Manager, job mapreduce.Config,
	corpus []string, words int, o options, tr *tracer) (outcome, error) {
	res, err := mapreduce.Run(ctx, mgr, job)
	if err != nil {
		return outcome{}, err
	}
	got, err := mapreduce.Collect(ctx, mgr, res)
	if err != nil {
		return outcome{}, err
	}
	f := newFingerprint()
	f.at(tb.Clock.Now())
	f.dur(res.Elapsed)
	f.dur(res.MapElapsed)
	f.dur(res.ReduceElapsed)
	f.i64(int64(res.MapTasks))
	f.i64(int64(res.ReduceTasks))
	for _, kv := range got {
		f.str(kv.Key)
		f.str(kv.Value)
	}
	// Comparing against the sequential reference is the checker's cost,
	// not the program's, so it runs after the measured phase.
	out := outcome{fp: f, verify: func() (int, int) {
		want := wordcount.Sequential(corpus)
		if o.mutateRef != nil {
			o.mutateRef(want)
		}
		return len(want), diffCounts(got, want)
	}}
	if tr != nil {
		kw := float64(words) / 1e3
		put := tr.stats(opPut)
		out.layers = map[string]float64{
			"mapreduce.map_us_per_kword":     float64(tr.mapNs.Load()) / 1e3 / kw,
			"mapreduce.combine_us_per_kword": float64(tr.combineNs.Load()) / 1e3 / kw,
			"mapreduce.reduce_us_per_kword":  float64(tr.reduceNs.Load()) / 1e3 / kw,
			"mapreduce.emits_per_word":       float64(tr.emits.Load()) / float64(words),
			"data.put_ms":                    float64(put.wall) / 1e6,
			"data.bytes_moved":               float64(tb.Data.Stats().BytesMoved),
			"core.attempts_per_unit":         attemptsPerUnit(mgr),
		}
	}
	return out, nil
}

// diffCounts counts the keys whose collected count differs from the
// reference, missing and unexpected keys included.
func diffCounts(got []mapreduce.KeyValue, want map[string]int) int {
	bad := 0
	seen := make(map[string]bool, len(got))
	for _, kv := range got {
		n, err := strconv.Atoi(kv.Value)
		if w, ok := want[kv.Key]; !ok || err != nil || n != w || seen[kv.Key] {
			bad++
		}
		seen[kv.Key] = true
	}
	for k := range want {
		if !seen[k] {
			bad++
		}
	}
	return bad
}

// timedMapper wraps a Mapper to accumulate its wall time and emits.
func timedMapper(m mapreduce.Mapper, tr *tracer) mapreduce.Mapper {
	return func(ctx context.Context, key, value string, emit func(k, v string)) error {
		var n int64
		t0 := time.Now()
		err := m(ctx, key, value, func(k, v string) { n++; emit(k, v) })
		tr.mapNs.Add(int64(time.Since(t0)))
		tr.emits.Add(n)
		return err
	}
}

// timedReducer wraps a Reducer (or combiner) to accumulate its wall time
// into ns and its emits.
func timedReducer(r mapreduce.Reducer, tr *tracer, ns *atomic.Int64) mapreduce.Reducer {
	return func(ctx context.Context, key string, values []string, emit func(k, v string)) error {
		var n int64
		t0 := time.Now()
		err := r(ctx, key, values, func(k, v string) { n++; emit(k, v) })
		ns.Add(int64(time.Since(t0)))
		tr.emits.Add(n)
		return err
	}
}
