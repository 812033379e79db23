package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/experiments"
	"gopilot/internal/streaming"
	"gopilot/internal/vclock"
)

// streamShape sizes one replicated-streaming workload. Both stream
// workloads share the cluster and the choreography (a fifth worker joins
// at a quarter, the shard leading partition 0 fails at half, the fifth
// worker leaves at three quarters); they differ only in how many
// messages cross the Bus per call.
type streamShape struct {
	messages int
	// pubMin..pubMax bounds the messages per publish call (drawn per call
	// from the seed when they differ).
	pubMin, pubMax int
	// poll is the group's messages-per-poll bound.
	poll int
	// keyed publishes (key, value) pairs through PublishBatch instead of
	// key-less values through PublishValues.
	keyed bool
}

var (
	bulkShape  = streamShape{messages: 400_000, pubMin: 4096, pubMax: 4096, poll: 2048}
	smallShape = streamShape{messages: 60_000, pubMin: 48, pubMax: 80, poll: 64, keyed: true}
)

const (
	streamShards    = 3
	streamParts     = 8
	streamWorkers   = 4
	payloadLen      = 64
	payloadPool     = 256
	keyPool         = 1024
	streamSegSize   = 4096
	streamInflight  = 256 << 10
	streamTopic     = "bench"
	streamGroupName = "bench"
)

// streamInputs is everything the seed decides for a stream workload.
type streamInputs struct {
	payloads [][]byte
	keys     [][]byte
	batches  []int // messages per publish call, summing to shape.messages
	keyOf    []uint16
}

// makeStreamInputs draws the payload pool (each payload is sealed so the
// handler can verify it), the key pool
// and per-message keys, and the publish batch sizes.
func makeStreamInputs(tb *experiments.Testbed, sh streamShape) streamInputs {
	s := tb.Root.Named("bench", "stream")
	in := streamInputs{payloads: make([][]byte, payloadPool)}
	for i := range in.payloads {
		p := make([]byte, payloadLen)
		for j := 0; j < payloadLen-8; j += 8 {
			binary.LittleEndian.PutUint64(p[j:], s.Uint64())
		}
		seal(p)
		in.payloads[i] = p
	}
	for left := sh.messages; left > 0; {
		k := sh.pubMin
		if sh.pubMax > sh.pubMin {
			k += int(s.Uint64() % uint64(sh.pubMax-sh.pubMin+1))
		}
		if k > left {
			k = left
		}
		in.batches = append(in.batches, k)
		left -= k
	}
	if sh.keyed {
		in.keys = make([][]byte, keyPool)
		for i := range in.keys {
			in.keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		}
		in.keyOf = make([]uint16, sh.messages)
		for i := range in.keyOf {
			in.keyOf[i] = uint16(s.Uint64() % keyPool)
		}
	}
	return in
}

// payloadSeal is what the XOR of a valid payload's eight little-endian
// words equals: the last word is chosen to make it so.
const payloadSeal = 0x5eed_5eed_5eed_5eed

func xorWords(p []byte) uint64 {
	var x uint64
	for i := 0; i+8 <= len(p); i += 8 {
		x ^= binary.LittleEndian.Uint64(p[i:])
	}
	return x
}

// seal sets the payload's last word so validPayload accepts it.
func seal(p []byte) {
	binary.LittleEndian.PutUint64(p[payloadLen-8:], 0)
	binary.LittleEndian.PutUint64(p[payloadLen-8:], xorWords(p)^payloadSeal)
}

// validPayload is the handler's integrity check: cheap enough per
// message that the benchmark's own share of the profile stays small.
func validPayload(p []byte) bool { return len(p) == payloadLen && xorWords(p) == payloadSeal }

// streamChecks is the inline invariant state, shared by the cluster
// hooks and the handler. Each partition has one owner at a time (the
// group barrier), so the atomics are for -race hygiene, not contention.
type streamChecks struct {
	violations  atomic.Int64
	badPayloads atomic.Int64
	acked       atomic.Int64 // watermark advances observed
	resident    maxGauge
	next        [streamParts]atomic.Int64 // expected next delivery
	commitMark  [streamParts]atomic.Int64
	ackedMark   [streamParts]atomic.Int64
}

func setupStream(ctx context.Context, seed int64, sh streamShape, tr *tracer, o options) (*env, error) {
	tb := newTestbed(seed, tr)
	in := makeStreamInputs(tb, sh)
	ck := &streamChecks{}
	keyLen := 0
	if sh.keyed {
		keyLen = len(in.keys[0])
	}
	// The retention contract's bound (as E13 states it): in-flight bytes
	// capped by backpressure or one publish batch admitted into an idle
	// partition, plus one unsealed segment behind the low-watermark.
	rec := int64(payloadLen + keyLen)
	residentBound := streamInflight + int64(sh.pubMax)*rec + streamSegSize*rec

	cluster := streaming.NewCluster(streaming.ClusterConfig{
		Name: "bench", Shards: streamShards, Replication: 3,
		HandoffDelay:     100 * time.Millisecond,
		AppendCost:       20 * time.Microsecond,
		FetchLatency:     time.Millisecond,
		SegmentSize:      streamSegSize,
		MaxInflightBytes: streamInflight,
		Clock:            tb.Clock,
		OnCommit: func(_ string, p int, from, through int64) {
			if from != ck.commitMark[p].Load() || through <= from {
				ck.violations.Add(1)
			}
			ck.commitMark[p].Store(through)
		},
		OnAcked: func(_ string, p int, from, to int64) {
			ck.acked.Add(1)
			if !ck.ackedMark[p].CompareAndSwap(from, to) || to <= from {
				ck.violations.Add(1)
			}
		},
		OnRetention: func(_ string, _ int, resident, _ int64) {
			ck.resident.observe(resident)
			if resident > residentBound {
				ck.violations.Add(1)
			}
		},
	})
	closeAll := func() {
		cluster.Close()
		tb.Close()
	}
	if err := cluster.CreateTopic(streamTopic, streamParts); err != nil {
		closeAll()
		return nil, err
	}
	mgr := tb.NewManager(nil)
	if _, err := mgr.SubmitPilot(core.PilotDescription{
		Name: "stream", Resource: "local://localhost", Cores: streamWorkers + 2, Walltime: 24 * time.Hour,
	}); err != nil {
		closeAll()
		return nil, err
	}
	var bus streaming.Bus = cluster
	if tr != nil {
		bus = timedBus{Bus: bus, t: tr}
	}
	if o.wrapBus != nil {
		bus = o.wrapBus(bus)
	}

	pr := newProbe(sh.messages)
	handler := func(_ context.Context, _ core.TaskContext, m streaming.Message) error {
		if !validPayload(m.Value) {
			ck.badPayloads.Add(1)
		}
		// Exactly once, in order: this delivery must be the partition's
		// expected next offset. A miss is counted and the expectation
		// resynchronised, so one lost message counts once.
		if !ck.next[m.Partition].CompareAndSwap(m.Offset, m.Offset+1) {
			ck.violations.Add(1)
			ck.next[m.Partition].Store(m.Offset + 1)
		}
		pr.add(1)
		return nil
	}
	if tr != nil {
		inner := handler
		// Every 64th offset is timed: a clock read per message would
		// cost more than the handler itself.
		handler = func(ctx context.Context, tc core.TaskContext, m streaming.Message) error {
			if m.Offset%64 != 0 {
				return inner(ctx, tc, m)
			}
			t0 := time.Now()
			err := inner(ctx, tc, m)
			tr.handlerNs.Add(int64(time.Since(t0)))
			tr.handlerTimed.Add(1)
			return err
		}
		pr.gauge = tr.gauges(mgr)
	}
	group, err := streaming.StartGroup(ctx, mgr, bus, streaming.GroupConfig{
		Name: streamGroupName, Topic: streamTopic, Workers: streamWorkers, BatchSize: sh.poll,
		// 100µs modeled per message: partitions drain slower than they
		// fill, so backpressure paces the producer.
		CostPerMessage: 100 * time.Microsecond,
		PureHandler:    true,
		Offsets:        cluster.Offsets(),
		Stream:         tb.Root.Named("streaming/group/" + streamGroupName),
		Handler:        handler,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	closeAll = func() {
		group.Stop()
		cluster.Close()
		tb.Close()
	}
	run := func(ctx context.Context) (outcome, error) {
		return runStream(ctx, tb, cluster, bus, group, sh, in, ck, pr, tr)
	}
	return &env{v: tb.Virtual, items: sh.messages, probe: pr, run: run, close: closeAll}, nil
}

func runStream(ctx context.Context, tb *experiments.Testbed, cluster *streaming.Cluster, bus streaming.Bus,
	group *streaming.Group, sh streamShape, in streamInputs, ck *streamChecks, pr *probe, tr *tracer) (outcome, error) {
	n := sh.messages
	var produceErr error
	done := vclock.NewEvent(tb.Clock)
	tb.Go(func() {
		defer done.Fire()
		produceErr = produce(ctx, bus, sh, in)
	})
	if err := group.WaitProcessed(ctx, int64(n/4)); err != nil {
		return outcome{}, fmt.Errorf("drained %d/%d before join: %w", group.Processed(), n, err)
	}
	joined, err := group.AddWorker()
	if err != nil {
		return outcome{}, err
	}
	if err := group.WaitProcessed(ctx, int64(n/2)); err != nil {
		return outcome{}, fmt.Errorf("drained %d/%d before shard loss: %w", group.Processed(), n, err)
	}
	victim, err := cluster.LeaderOf(streamTopic, 0)
	if err != nil {
		return outcome{}, err
	}
	if err := cluster.FailShard(victim); err != nil {
		return outcome{}, err
	}
	if err := group.WaitProcessed(ctx, int64(3*n/4)); err != nil {
		return outcome{}, fmt.Errorf("drained %d/%d before leave: %w", group.Processed(), n, err)
	}
	if err := group.RemoveWorker(joined); err != nil {
		return outcome{}, err
	}
	if err := group.WaitProcessed(ctx, int64(n)); err != nil {
		return outcome{}, fmt.Errorf("drained %d/%d: %w", group.Processed(), n, err)
	}
	if !done.Wait(ctx) {
		return outcome{}, ctx.Err()
	}
	if produceErr != nil {
		return outcome{}, fmt.Errorf("produce: %w", produceErr)
	}
	group.Stop()

	// Produced == delivered, per partition and in total; every replica
	// agrees with its leader after the drain.
	failed := ck.violations.Load() + ck.badPayloads.Load()
	var produced int64
	f := newFingerprint()
	f.at(tb.Clock.Now())
	for p := 0; p < streamParts; p++ {
		end, err := cluster.EndOffset(streamTopic, p)
		if err != nil {
			return outcome{}, err
		}
		committed, err := cluster.Committed(streamTopic, p)
		if err != nil {
			return outcome{}, err
		}
		produced += end
		if got := ck.next[p].Load(); got != end {
			failed += abs64(end - got)
		}
		f.i64(end)
		f.i64(committed)
	}
	failed += abs64(int64(n) - produced)
	failed += abs64(int64(n) - pr.done.Load())
	failed += int64(len(cluster.CheckReplicaConsistency(streamTopic)))
	f.i64(int64(cluster.Handoffs()))
	f.i64(int64(cluster.Repairs()))
	f.i64(int64(group.Rebalances()))

	var w0, m0 time.Time
	var a0 uint64
	if tr != nil {
		a0 = allocBytes()
		w0, m0 = tr.begin()
	}
	lat := group.LatencyStats()
	if tr != nil {
		tr.end(opSummary, 0, w0, m0)
		tr.summaryAlloc = allocBytes() - a0
	}
	f.i64(int64(lat.N))
	for _, q := range []float64{lat.Mean, lat.Median, lat.P95, lat.P99, lat.Max} {
		f.f64(q)
	}

	out := outcome{attempted: n, failed: int(min(failed, int64(n))), fp: f}
	if tr != nil {
		out.layers = streamLayers(tr, cluster, ck, n)
	}
	return out, nil
}

// produce publishes the workload's messages through bus in the drawn
// batch sizes, keyed through PublishBatch or key-less through
// PublishValues.
func produce(ctx context.Context, bus streaming.Bus, sh streamShape, in streamInputs) error {
	values := make([][]byte, sh.pubMax)
	kvs := make([][2][]byte, sh.pubMax)
	sent := 0
	for _, k := range in.batches {
		if sh.keyed {
			for i := 0; i < k; i++ {
				kvs[i] = [2][]byte{in.keys[in.keyOf[sent+i]], in.payloads[(sent+i)%payloadPool]}
			}
			if _, err := bus.PublishBatch(ctx, streamTopic, kvs[:k]); err != nil {
				return err
			}
		} else {
			for i := 0; i < k; i++ {
				values[i] = in.payloads[(sent+i)%payloadPool]
			}
			if err := bus.PublishValues(ctx, streamTopic, values[:k]); err != nil {
				return err
			}
		}
		sent += k
	}
	return nil
}

// streamLayers computes the streaming and metrics per-layer values of one
// traced iteration.
func streamLayers(tr *tracer, cluster *streaming.Cluster, ck *streamChecks, n int) map[string]float64 {
	pub, fetch, commit, sum := tr.stats(opPublish), tr.stats(opFetch), tr.stats(opCommit), tr.stats(opSummary)
	l := map[string]float64{
		"streaming.publish_calls":           float64(pub.calls),
		"streaming.publish_wall_us_p50":     quantile(pub.wallUs, 0.5),
		"streaming.publish_wall_us_p99":     quantile(pub.wallUs, 0.99),
		"streaming.publish_wait_modeled_s":  pub.modeled.Seconds(),
		"streaming.fetch_calls":             float64(fetch.calls),
		"streaming.fetch_wall_us_p50":       quantile(fetch.wallUs, 0.5),
		"streaming.commit_calls":            float64(commit.calls),
		"streaming.commit_wall_us_p50":      quantile(commit.wallUs, 0.5),
		"streaming.acked_advances_per_kmsg": float64(ck.acked.Load()) / (float64(n) / 1e3),
		"streaming.resident_peak_bytes":     float64(ck.resident.load()),
		"streaming.handoffs":                float64(cluster.Handoffs()),
		"streaming.repairs":                 float64(cluster.Repairs()),
		"metrics.summary_ms":                float64(sum.wall) / 1e6,
		"metrics.summary_alloc_mb":          float64(tr.summaryAlloc) / (1 << 20),
	}
	if t := tr.handlerTimed.Load(); t > 0 {
		l["streaming.handler_us_per_msg"] = float64(tr.handlerNs.Load()) / 1e3 / float64(t)
	}
	if fetch.calls > 0 {
		l["streaming.fetch_msgs_per_call"] = float64(fetch.msgs) / float64(fetch.calls)
		l["streaming.fetch_empty_frac"] = float64(fetch.empty) / float64(fetch.calls)
	}
	return l
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
