package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// op names a traced call boundary: one exported entry point of a
// program package, timed from the benchmark's side of the call.
type op uint8

const (
	opPublish op = iota // streaming.Bus PublishValues / PublishBatch
	opFetch             // streaming.Bus FetchOrWait
	opCommit            // streaming.Bus Commit
	opSubmit            // core.Manager SubmitUnits
	opPut               // data.Service Put
	opSummary           // streaming.Group LatencyStats
	numOps
)

var opNames = [numOps]string{"publish", "fetch", "commit", "submit", "put", "summary"}

// span is one timed call. Wall times are offsets from the tracer's
// origin; modeled is the virtual time that passed inside the call. On
// the virtual executor a parked call's wall span includes other
// participants' turns, so wall spans give counts and wall per call, not
// self time (self time comes from the CPU profile).
type span struct {
	op        op
	n         int32 // messages carried (publish, fetch)
	wallStart time.Duration
	wall      time.Duration
	modeled   time.Duration
}

// tracer holds one traced iteration's spans and counters in memory. A
// nil *tracer means tracing is off; workloads check before recording.
type tracer struct {
	v      *vclock.Virtual
	origin time.Time

	mu    sync.Mutex
	spans []span

	// Wall nanoseconds spent inside wrapped user functions, and what
	// they emitted. Updated from parallel compute phases, hence atomic.
	handlerNs, mapNs, combineNs, reduceNs atomic.Int64
	emits, handlerTimed                   atomic.Int64
	summaryAlloc                          uint64 // heap bytes allocated by LatencyStats

	// Gauges sampled at progress points.
	sleepersPeak, participantsPeak, queuePeak maxGauge
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span: wall and modeled start.
func (t *tracer) begin() (time.Time, time.Time) { return time.Now(), t.v.Now() }

// end closes a span opened by begin.
func (t *tracer) end(o op, n int, w0, m0 time.Time) {
	w1, m1 := time.Now(), t.v.Now()
	s := span{op: o, n: int32(n), wallStart: w0.Sub(t.origin), wall: w1.Sub(w0), modeled: m1.Sub(m0)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opStats summarizes the spans of one op.
type opStats struct {
	calls, empty int
	msgs         int64
	wallUs       []float64
	modeled      time.Duration
	wall         time.Duration
}

func (t *tracer) stats(o op) opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st opStats
	for _, s := range t.spans {
		if s.op != o {
			continue
		}
		st.calls++
		st.msgs += int64(s.n)
		if s.n == 0 {
			st.empty++
		}
		st.wallUs = append(st.wallUs, float64(s.wall)/1e3)
		st.modeled += s.modeled
		st.wall += s.wall
	}
	return st
}

// writeSpans writes the spans as tab-separated rows to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tmsgs\twall_start_ns\twall_ns\tmodeled_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", opNames[s.op], s.n, s.wallStart, s.wall, s.modeled)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gauges returns the sampler a traced run calls at each progress point:
// executor sleepers and participants, and mgr's pending queue.
func (t *tracer) gauges(mgr *core.Manager) func() {
	return func() {
		t.sleepersPeak.observe(int64(t.v.PendingSleepers()))
		t.participantsPeak.observe(int64(t.v.Participants()))
		t.queuePeak.observe(int64(mgr.QueueDepth()))
	}
}

// timedBus is a streaming.Bus decorator that records a span around every
// call the producer and the consumer group make into the data plane.
type timedBus struct {
	streaming.Bus
	t *tracer
}

func (b timedBus) PublishValues(ctx context.Context, topic string, values [][]byte) error {
	w0, m0 := b.t.begin()
	err := b.Bus.PublishValues(ctx, topic, values)
	b.t.end(opPublish, len(values), w0, m0)
	return err
}

func (b timedBus) PublishBatch(ctx context.Context, topic string, kvs [][2][]byte) ([]streaming.Message, error) {
	w0, m0 := b.t.begin()
	out, err := b.Bus.PublishBatch(ctx, topic, kvs)
	b.t.end(opPublish, len(kvs), w0, m0)
	return out, err
}

func (b timedBus) FetchOrWait(ctx context.Context, topic string, parts []int, offsets []int64, start, max int) (int, []streaming.Message, error) {
	w0, m0 := b.t.begin()
	i, msgs, err := b.Bus.FetchOrWait(ctx, topic, parts, offsets, start, max)
	b.t.end(opFetch, len(msgs), w0, m0)
	return i, msgs, err
}

func (b timedBus) Commit(topic string, partition int, through int64) error {
	w0, m0 := b.t.begin()
	err := b.Bus.Commit(topic, partition, through)
	b.t.end(opCommit, 0, w0, m0)
	return err
}
