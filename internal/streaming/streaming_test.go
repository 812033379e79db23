package streaming

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// fastClock returns a virtual clock with the test goroutine adopted as a
// participant until the test ends.
func fastClock(t *testing.T) *vclock.Virtual {
	v := vclock.NewVirtual(vclock.Epoch)
	v.Adopt()
	t.Cleanup(v.Leave)
	return v
}

// single builds the standalone deployment every non-replicated test
// runs on: a one-shard cluster with no replicas.
func single(cfg ClusterConfig) *Cluster {
	cfg.Shards, cfg.Replication = 1, 1
	return NewCluster(cfg)
}

func newBroker(clock vclock.Clock) *Cluster {
	return single(ClusterConfig{
		Name:         "b",
		AppendCost:   time.Millisecond, // 1000 msg/s per partition
		FetchLatency: time.Millisecond,
		Clock:        clock,
	})
}

func TestCreateTopicAndPartitions(t *testing.T) {
	b := newBroker(fastClock(t))
	defer b.Close()
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	n, err := b.Partitions("t")
	if err != nil || n != 4 {
		t.Fatalf("Partitions = %d %v", n, err)
	}
	// Idempotent with same count, conflict with different count.
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 8); err == nil {
		t.Fatal("conflicting partition count accepted")
	}
	if err := b.CreateTopic("z", 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestPublishFetchRoundTrip(t *testing.T) {
	b := newBroker(fastClock(t))
	defer b.Close()
	b.CreateTopic("t", 1)
	m, err := b.Publish(context.Background(), "t", []byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Offset != 0 || m.Partition != 0 {
		t.Fatalf("msg = %+v", m)
	}
	got, err := b.Fetch(context.Background(), "t", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Value) != "v" {
		t.Fatalf("fetch = %+v", got)
	}
}

func TestPerPartitionOrdering(t *testing.T) {
	b := newBroker(fastClock(t))
	defer b.Close()
	b.CreateTopic("t", 2)
	key := []byte("same-key")
	for i := 0; i < 20; i++ {
		b.Publish(context.Background(), "t", key, []byte{byte(i)})
	}
	p := partitionOf(key, 2)
	msgs, err := b.Fetch(context.Background(), "t", p, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 20 {
		t.Fatalf("got %d messages, want 20", len(msgs))
	}
	for i, m := range msgs {
		if int(m.Value[0]) != i || m.Offset != int64(i) {
			t.Fatalf("ordering violated at %d: %+v", i, m)
		}
	}
}

func TestKeylessPublishesSpreadRoundRobin(t *testing.T) {
	b := newBroker(fastClock(t))
	defer b.Close()
	b.CreateTopic("t", 4)
	counts := make(map[int]int)
	for i := 0; i < 16; i++ {
		m, err := b.Publish(context.Background(), "t", nil, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		counts[m.Partition]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] != 4 {
			t.Fatalf("partition %d got %d messages, want 4 (%v)", p, counts[p], counts)
		}
	}
}

func TestFetchLongPollWakesOnPublish(t *testing.T) {
	clock := fastClock(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 1)
	var msgs []Message
	got := vclock.NewEvent(clock)
	clock.Go(func() {
		defer got.Fire()
		var err error
		if msgs, err = b.Fetch(context.Background(), "t", 0, 0, 10); err != nil {
			t.Error(err)
		}
	})
	clock.Sleep(context.Background(), time.Minute)
	b.Publish(context.Background(), "t", nil, []byte("wake"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !got.Wait(ctx) {
		t.Fatal("long poll never woke")
	}
	if len(msgs) != 1 || string(msgs[0].Value) != "wake" {
		t.Fatalf("msgs = %+v", msgs)
	}
}

func TestFetchAfterCloseReturnsError(t *testing.T) {
	clock := fastClock(t)
	b := newBroker(clock)
	b.CreateTopic("t", 1)
	var err error
	returned := vclock.NewEvent(clock)
	clock.Go(func() {
		defer returned.Fire()
		_, err = b.Fetch(context.Background(), "t", 0, 0, 10)
	})
	clock.Sleep(context.Background(), time.Minute)
	b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !returned.Wait(ctx) {
		t.Fatal("fetch never returned after close")
	}
	if !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("err = %v, want ErrBrokerClosed", err)
	}
}

func TestUnknownTopicErrors(t *testing.T) {
	b := newBroker(fastClock(t))
	defer b.Close()
	if _, err := b.Publish(context.Background(), "ghost", nil, nil); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.Fetch(context.Background(), "ghost", 0, 0, 1); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.EndOffset("ghost", 0); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendCostThrottlesProducer(t *testing.T) {
	// Virtual clock: modeled durations are exact, so the rate assertions
	// cannot be eroded by wall-clock noise under instrumentation or
	// oversubscribed GOMAXPROCS.
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := single(ClusterConfig{AppendCost: 10 * time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 1)
	start := clock.Now()
	// 400 messages at 10ms each = 4s modeled on a single partition.
	rate, err := Produce(context.Background(), b, "t", 400, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := clock.Since(start); elapsed != 4*time.Second {
		t.Errorf("elapsed = %v, want exactly 4s (throttled)", elapsed)
	}
	if rate != 100 {
		t.Errorf("achieved rate = %g msg/s, want exactly 100 (single partition cap)", rate)
	}
}

func TestMorePartitionsRaiseCapacity(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := single(ClusterConfig{AppendCost: 10 * time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
	defer b.Close()
	b.CreateTopic("one", 1)
	b.CreateTopic("four", 4)
	r1, err := Produce(context.Background(), b, "one", 400, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Produce(context.Background(), b, "four", 400, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if r4 < 3.9*r1 {
		t.Errorf("4-partition rate %.0f not ≈4x 1-partition rate %.0f", r4, r1)
	}
}

func newStreamEnv(t *testing.T, clock vclock.Clock, cores int) *core.Manager {
	t.Helper()
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("sp", cores, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	t.Cleanup(mgr.Close)
	p, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://sp", Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitRunning(context.Background()); err != nil {
		t.Fatal(err)
	}
	return mgr
}

func TestProcessorConsumesAll(t *testing.T) {
	clock := fastClock(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 4)
	mgr := newStreamEnv(t, clock, 8)

	var mu sync.Mutex
	seen := map[string]bool{}
	proc, err := StartProcessor(context.Background(), mgr, b, ProcessorConfig{
		Name: "p", Topic: "t", Workers: 2,
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			mu.Lock()
			seen[string(m.Value)] = true
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := b.Publish(context.Background(), "t", nil, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d of %d: %v", proc.Processed(), n, err)
	}
	proc.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("distinct messages = %d, want %d", len(seen), n)
	}
	if proc.Throughput() <= 0 {
		t.Error("throughput not measured")
	}
	if proc.LatencyStats().N != n {
		t.Errorf("latency samples = %d, want %d", proc.LatencyStats().N, n)
	}
}

func TestProcessorLatencyGrowsWithSlowHandler(t *testing.T) {
	clock := fastClock(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 1)
	mgr := newStreamEnv(t, clock, 2)

	proc, err := StartProcessor(context.Background(), mgr, b, ProcessorConfig{
		Topic: "t", Workers: 1,
		Handler: func(ctx context.Context, tc core.TaskContext, _ Message) error {
			tc.Sleep(ctx, 50*time.Millisecond) // slower than arrival
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b.Publish(context.Background(), "t", nil, []byte("x"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, 50); err != nil {
		t.Fatal(err)
	}
	proc.Stop()
	lat := proc.LatencyStats()
	// Later messages queue behind earlier ones: p95 must exceed median.
	if lat.P95 <= lat.Median {
		t.Errorf("latency did not grow under backlog: median=%g p95=%g", lat.Median, lat.P95)
	}
}

func TestProcessorValidation(t *testing.T) {
	clock := fastClock(t)
	b := newBroker(clock)
	defer b.Close()
	b.CreateTopic("t", 1)
	mgr := newStreamEnv(t, clock, 2)
	if _, err := StartProcessor(context.Background(), mgr, b, ProcessorConfig{Topic: "t"}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := StartProcessor(context.Background(), mgr, b, ProcessorConfig{Topic: "ghost", Handler: func(context.Context, core.TaskContext, Message) error { return nil }}); err == nil {
		t.Error("unknown topic accepted")
	}
}

func TestWindowTumbles(t *testing.T) {
	var mu sync.Mutex
	var flushed [][]Message
	w := NewWindow(time.Minute, func(_ time.Time, msgs []Message) {
		mu.Lock()
		flushed = append(flushed, msgs)
		mu.Unlock()
	})
	base := time.Date(2020, 3, 25, 12, 0, 0, 0, time.UTC)
	w.Add(Message{Published: base.Add(10 * time.Second)})
	w.Add(Message{Published: base.Add(30 * time.Second)})
	w.Add(Message{Published: base.Add(70 * time.Second)}) // next window → flush first
	mu.Lock()
	if len(flushed) != 1 || len(flushed[0]) != 2 {
		t.Fatalf("flushed = %v", flushed)
	}
	mu.Unlock()
	w.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != 2 || len(flushed[1]) != 1 {
		t.Fatalf("flushed after Flush = %v", flushed)
	}
}

func TestWindowPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindow(0, func(time.Time, []Message) {})
}

func TestProduceAtRate(t *testing.T) {
	clock := fastClock(t)
	b := single(ClusterConfig{AppendCost: 100 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 4)
	rate, err := Produce(context.Background(), b, "t", 200, 100, []byte("x")) // 100 msg/s target
	if err != nil {
		t.Fatal(err)
	}
	if rate > 150 {
		t.Errorf("achieved rate %.0f exceeds 100 msg/s target by too much", rate)
	}
}

// TestFetchSegmentBoundaries covers the segmented log: a fetch never
// crosses a segment, so consumers see at most SegmentSize messages per
// view and loop across boundaries without losing order.
func TestFetchSegmentBoundaries(t *testing.T) {
	b := single(ClusterConfig{
		AppendCost: time.Microsecond, FetchLatency: time.Microsecond,
		SegmentSize: 4, Clock: fastClock(t),
	})
	defer b.Close()
	b.CreateTopic("t", 1)
	for i := 0; i < 10; i++ {
		if _, err := b.Publish(context.Background(), "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	var off int64
	for _, wantLen := range []int{4, 4, 2} {
		batch, err := b.Fetch(context.Background(), "t", 0, off, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != wantLen {
			t.Fatalf("fetch at %d returned %d messages, want %d (segment bound)", off, len(batch), wantLen)
		}
		for _, m := range batch {
			if m.Offset != off {
				t.Fatalf("offset %d out of order (want %d)", m.Offset, off)
			}
			got = append(got, m.Value[0])
			off++
		}
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("value order violated at %d: %v", i, got)
		}
	}
}

// TestFetchViewStableWhileAppending pins the zero-copy contract: a view
// returned by Fetch stays valid and immutable while the producer keeps
// appending into the same segment, and appending to the view cannot
// clobber the log.
func TestFetchViewStableWhileAppending(t *testing.T) {
	b := single(ClusterConfig{
		AppendCost: time.Microsecond, FetchLatency: time.Microsecond,
		SegmentSize: 8, Clock: fastClock(t),
	})
	defer b.Close()
	b.CreateTopic("t", 1)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		b.Publish(ctx, "t", nil, []byte{byte(i)})
	}
	view, err := b.Fetch(ctx, "t", 0, 0, 100)
	if err != nil || len(view) != 3 {
		t.Fatalf("view = %d msgs, %v", len(view), err)
	}
	// Appends land in the same segment, behind the view.
	for i := 3; i < 5; i++ {
		b.Publish(ctx, "t", nil, []byte{byte(i)})
	}
	// A consumer appending to its batch must not write into the log.
	_ = append(view, Message{Value: []byte{99}})
	if len(view) != 3 {
		t.Fatalf("view length changed: %d", len(view))
	}
	for i, m := range view {
		if int(m.Value[0]) != i {
			t.Fatalf("view mutated at %d: %v", i, m.Value)
		}
	}
	all, err := b.Fetch(ctx, "t", 0, 0, 100)
	if err != nil || len(all) != 5 {
		t.Fatalf("full fetch = %d msgs, %v", len(all), err)
	}
	for i, m := range all {
		if int(m.Value[0]) != i {
			t.Fatalf("log clobbered at %d: got %v", i, m.Value)
		}
	}
}

// TestFetchOrWaitChargesLatencyOnce is the empty-poll regression test:
// one FetchOrWait charges the long-poll RTT exactly once, whether data
// was ready or the poll had to park. Before the combined call, a parked
// consumer paid FetchLatency again after waking (a wait, then a Fetch),
// inflating modeled end-to-end latency by one RTT on every empty poll.
func TestFetchOrWaitChargesLatencyOnce(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	const (
		appendCost = 2 * time.Millisecond
		fetchRTT   = 3 * time.Millisecond
	)
	b := single(ClusterConfig{AppendCost: appendCost, FetchLatency: fetchRTT, Clock: clock})
	defer b.Close()
	b.CreateTopic("t", 1)
	ctx := context.Background()

	// Data already available: delivery = publish + append + one RTT.
	m0, err := b.Publish(ctx, "t", nil, []byte("ready"))
	if err != nil {
		t.Fatal(err)
	}
	_, batch, err := b.FetchOrWait(ctx, "t", []int{0}, []int64{0}, 0, 10)
	if err != nil || len(batch) != 1 {
		t.Fatalf("ready poll = %d msgs, %v", len(batch), err)
	}
	deliveredAt := clock.Now()
	if want := m0.Published.Add(appendCost + fetchRTT); !deliveredAt.Equal(want) {
		t.Fatalf("ready-path delivery at %v, want %v (exactly one RTT)", deliveredAt, want)
	}

	// Empty poll: the consumer parks with its RTT already paid, so a
	// message arriving while parked is delivered at its arrival instant —
	// zero extra charge.
	var gotPublished, gotDelivered time.Time
	done := vclock.NewEvent(clock)
	vclock.Go(clock, func() {
		defer done.Fire()
		_, batch, err := b.FetchOrWait(ctx, "t", []int{0}, []int64{1}, 0, 10)
		if err != nil || len(batch) != 1 {
			t.Errorf("parked poll = %d msgs, %v", len(batch), err)
			return
		}
		gotPublished = batch[0].Published
		gotDelivered = clock.Now()
	})
	// Publish well after the poll parked (the RTT ends before this).
	if !clock.Sleep(ctx, 10*time.Millisecond) {
		t.Fatal("driver sleep canceled")
	}
	m1, err := b.Publish(ctx, "t", nil, []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if !done.Wait(ctx) {
		t.Fatal("parked poll never returned")
	}
	if !gotPublished.Equal(m1.Published) {
		t.Fatalf("parked poll saw Published %v, want %v", gotPublished, m1.Published)
	}
	if !gotDelivered.Equal(m1.Published) {
		t.Fatalf("parked poll delivered at %v, want the arrival instant %v (no second RTT)", gotDelivered, m1.Published)
	}
}

// TestKeylessPlacementDeterministicAcrossProducers pins the round-robin
// cursor contract: with two producers interleaving key-less publishes on
// the virtual clock, every (producer, sequence) → (partition, offset)
// placement is bit-identical across same-seed runs.
func TestKeylessPlacementDeterministicAcrossProducers(t *testing.T) {
	run := func() string {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		defer clock.Leave()
		b := single(ClusterConfig{AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: clock})
		defer b.Close()
		b.CreateTopic("t", 4)
		placements := make([][]string, 2)
		wg := vclock.NewGroup(clock)
		for pr := 0; pr < 2; pr++ {
			pr := pr
			wg.Add(1)
			vclock.Go(clock, func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					m, err := b.Publish(context.Background(), "t", nil, []byte{byte(pr), byte(i)})
					if err != nil {
						t.Error(err)
						return
					}
					placements[pr] = append(placements[pr], fmt.Sprintf("p%d.%d->%d@%d", pr, i, m.Partition, m.Offset))
				}
			})
		}
		wg.Wait()
		return strings.Join(placements[0], " ") + " | " + strings.Join(placements[1], " ")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed key-less placement diverged:\n%s\n%s", a, b)
	}
}

// TestPublishBatchPartialResultIsAppendedPrefix pins the PublishBatch
// error contract: when a later partition's sub-batch fails (here, ctx
// canceled while partition 1 is held at its backpressure bound), the
// result holds exactly the messages that were appended — partition 0's —
// and no zero-valued placeholder for the sub-batch that never landed.
func TestPublishBatchPartialResultIsAppendedPrefix(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := single(ClusterConfig{AppendCost: time.Millisecond, MaxInflightBytes: 10, Clock: clock})
	defer b.Close()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	keyFor := func(p int) []byte {
		for i := 0; ; i++ {
			if k := []byte(fmt.Sprintf("k%d", i)); partitionOf(k, 2) == p {
				return k
			}
		}
	}
	k0, k1 := keyFor(0), keyFor(1)
	ctx := context.Background()
	// Fill partition 1 exactly to its 10-byte bound; nothing commits.
	if _, err := b.Publish(ctx, "t", k1, make([]byte, 10-len(k1))); err != nil {
		t.Fatal(err)
	}
	canceled, cancelNow := context.WithCancel(ctx)
	cancelNow()
	out, err := b.PublishBatch(canceled, "t", [][2][]byte{{k0, []byte("a")}, {k1, []byte("b")}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 1 {
		t.Fatalf("partial batch returned %d messages, want 1 (the appended prefix): %+v", len(out), out)
	}
	if m := out[0]; m.Topic != "t" || m.Partition != 0 || m.Offset != 0 || string(m.Value) != "a" {
		t.Fatalf("returned message %+v, want t[0]@0 value \"a\"", m)
	}
	if end, _ := b.EndOffset("t", 0); end != 1 {
		t.Fatalf("partition 0 end = %d, want 1 (the returned message is in the log)", end)
	}
	if end, _ := b.EndOffset("t", 1); end != 1 {
		t.Fatalf("partition 1 end = %d, want 1 (the canceled sub-batch never landed)", end)
	}
}

// benchDataPlane pushes 100k messages through a 4-partition topic and
// drains them, either through the batched zero-copy path (PublishValues +
// view fetches) or the naive per-message-copy path (per-message Publish,
// consumer copying every batch). The allocs/op gap between the two is the
// number BENCH_baseline.json's allocs_per_op gate locks in.
func benchDataPlane(b *testing.B, naive bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := vclock.NewVirtual(vclock.Epoch)
		clock.Adopt()
		br := single(ClusterConfig{AppendCost: 10 * time.Microsecond, FetchLatency: time.Millisecond, Clock: clock})
		br.CreateTopic("t", 4)
		const n = 100_000
		payload := make([]byte, 64)
		ctx := context.Background()
		if naive {
			for j := 0; j < n; j++ {
				if _, err := br.Publish(ctx, "t", nil, payload); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			values := make([][]byte, 1024)
			for j := range values {
				values[j] = payload
			}
			for sent := 0; sent < n; {
				k := len(values)
				if n-sent < k {
					k = n - sent
				}
				if err := br.PublishValues(ctx, "t", values[:k]); err != nil {
					b.Fatal(err)
				}
				sent += k
			}
		}
		total := 0
		for q := 0; q < 4; q++ {
			end, _ := br.EndOffset("t", q)
			var off int64
			for off < end {
				batch, err := br.Fetch(ctx, "t", q, off, 1024)
				if err != nil {
					b.Fatal(err)
				}
				if naive {
					batch = append([]Message(nil), batch...)
				}
				total += len(batch)
				off += int64(len(batch))
			}
		}
		br.Close()
		clock.Leave()
		if total != n {
			b.Fatalf("drained %d of %d", total, n)
		}
	}
}

// BenchmarkDataPlaneZeroCopy is the batched zero-copy hot path.
func BenchmarkDataPlaneZeroCopy(b *testing.B) { benchDataPlane(b, false) }

// BenchmarkDataPlaneNaivePerMessage is the per-message-copy baseline the
// zero-copy win is measured against.
func BenchmarkDataPlaneNaivePerMessage(b *testing.B) { benchDataPlane(b, true) }

// pureHandlerRun drives one full produce→process cycle on a fresh Virtual
// clock with PureHandler set (real CPU per message) and fingerprints every
// externally visible measurement.
func pureHandlerRun(t *testing.T) string {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	b := single(ClusterConfig{
		Name: "b", AppendCost: time.Millisecond, FetchLatency: time.Millisecond, Clock: clock,
	})
	defer b.Close()
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("lh", 32, clock))
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgr.Close()
	if _, err := mgr.SubmitPilot(core.PilotDescription{Resource: "local://lh", Cores: 8}); err != nil {
		t.Fatal(err)
	}
	proc, err := StartProcessor(context.Background(), mgr, b, ProcessorConfig{
		Name: "p", Topic: "t", Workers: 4, BatchSize: 8,
		CostPerMessage: 2 * time.Millisecond,
		PureHandler:    true,
		Handler: func(_ context.Context, _ core.TaskContext, m Message) error {
			acc := uint64(len(m.Value)) // real CPU, pure
			for i := 0; i < 20_000; i++ {
				acc = acc*6364136223846793005 + 1442695040888963407
			}
			if acc == 42 { // keep the loop alive
				return errors.New("unreachable")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	if _, err := Produce(context.Background(), b, "t", n, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := proc.WaitProcessed(ctx, n); err != nil {
		t.Fatalf("processed %d/%d: %v", proc.Processed(), n, err)
	}
	proc.Stop()
	lat := proc.LatencyStats()
	return fmt.Sprintf("processed=%d tput=%.6f lat{mean=%.9f p50=%.9f p95=%.9f max=%.9f}",
		proc.Processed(), proc.Throughput(), lat.Mean, lat.Median, lat.P95, lat.Max)
}

// TestPureHandlerDeterministicOnVirtualClock pins the compute-phase
// contract at the streaming layer: batches processed as parallel compute
// phases (real CPU, wall-time-racy completion) must leave throughput and
// every latency quantile bit-identical across runs.
func TestPureHandlerDeterministicOnVirtualClock(t *testing.T) {
	a := pureHandlerRun(t)
	for i := 0; i < 4; i++ {
		if b := pureHandlerRun(t); b != a {
			t.Fatalf("run %d diverged:\n%s\n%s", i+2, a, b)
		}
	}
}
