package streaming

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gopilot/internal/vclock"
)

// TestDivergenceRepairAfterHandoff drives the recovery protocol's repair
// path deterministically: a follower frozen mid-stream leaves the
// acknowledged watermark behind while the other follower keeps pace with
// the leader; killing the leader promotes the *lagging* follower (first
// in replica order), so the caught-up follower now holds a suffix the
// new leader never acknowledged — epoch-chain divergence. The catch-up
// runner must detect it, truncate the diverged suffix, re-stream the
// authoritative history, and leave both logs identical; the mid-publish
// producer's batch must survive via re-append to the new leader.
func TestDivergenceRepairAfterHandoff(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 3, HandoffDelay: 50 * time.Millisecond,
		AppendCost: 10 * time.Microsecond, FetchLatency: 100 * time.Microsecond,
		Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := c.ReplicasOf("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	leader, f1, f2 := reps[0], reps[1], reps[2]

	// Freeze slot 0 (follower f1): the watermark pins at its log end.
	if err := c.FreezeReplica("t", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	var pubErr error
	pubDone := vclock.NewEvent(clock)
	vclock.Go(clock, func() {
		defer pubDone.Fire()
		pubErr = c.PublishValues(ctx, "t", [][]byte{{10}, {11}, {12}, {13}})
	})
	if !clock.Sleep(ctx, time.Second) {
		t.Fatal("sleep interrupted")
	}
	if pubDone.Fired() {
		t.Fatal("publish acknowledged without a full-quorum watermark")
	}
	if e, _ := c.shards[leader].EndOffset("t", 0); e != 9 {
		t.Fatalf("leader end = %d, want 9", e)
	}
	if e, _ := c.shards[f2].EndOffset("t", 0); e != 9 {
		t.Fatalf("follower f2 end = %d, want 9 (should keep pace)", e)
	}
	if e, _ := c.shards[f1].EndOffset("t", 0); e != 5 {
		t.Fatalf("frozen follower f1 end = %d, want 5", e)
	}
	if hw, _ := c.AckedOffset("t", 0); hw != 5 {
		t.Fatalf("acked = %d, want 5 (pinned by the frozen follower)", hw)
	}

	// Kill the leader: f1 (first surviving member) is promoted despite
	// lagging — its log already ends at the watermark. f2's [5,9) suffix
	// was never acknowledged and now carries a dead epoch.
	if err := c.FailShard(leader); err != nil {
		t.Fatal(err)
	}
	if nl, _ := c.LeaderOf("t", 0); nl != f1 {
		t.Fatalf("promoted leader = %d, want first surviving member %d", nl, f1)
	}
	// Resume replication into slot 0, which now addresses f2.
	if err := c.FreezeReplica("t", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if !pubDone.Wait(ctx) {
		t.Fatal("publish never completed")
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	deadline := clock.Now().Add(time.Minute)
	for c.UnderReplicated() != 0 {
		if clock.Now().After(deadline) {
			t.Fatal("replication never drained after the handoff")
		}
		clock.Sleep(ctx, 10*time.Millisecond)
	}
	if r := c.Repairs(); r < 1 {
		t.Fatalf("repairs = %d, want >= 1 (diverged suffix must be truncated and re-streamed)", r)
	}
	if d := c.CheckReplicaConsistency("t"); len(d) != 0 {
		t.Fatalf("replicas still diverged after repair: %v", d)
	}
	// Post-repair log identity: the repaired follower's log matches the
	// new leader's message for message, and the producer's batch landed
	// exactly once at [5,9).
	assertReplicaLogsIdentical(t, c, "t", 0)
	msgs, err := c.Fetch(ctx, "t", 0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 {
		t.Fatalf("fetched %d messages past the watermark, want the re-appended 4", len(msgs))
	}
	for i, m := range msgs {
		if m.Offset != int64(5+i) || len(m.Value) != 1 || m.Value[0] != byte(10+i) {
			t.Fatalf("msg %d = offset %d value %v, want offset %d value [%d]",
				i, m.Offset, m.Value, 5+i, 10+i)
		}
	}
}

// TestStaleHandoffBugLeavesDivergedReplica proves the planted defect is
// observable at this layer: with the stale-handoff bug enabled, the same
// choreography as TestDivergenceRepairAfterHandoff must leave the
// deposed suffix in place — no repair runs and CheckReplicaConsistency
// reports the divergence.
func TestStaleHandoffBugLeavesDivergedReplica(t *testing.T) {
	EnableStaleHandoffBug(true)
	defer EnableStaleHandoffBug(false)
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 3, HandoffDelay: 50 * time.Millisecond,
		AppendCost: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	reps, _ := c.ReplicasOf("t", 0)
	if err := c.FreezeReplica("t", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	pubDone := vclock.NewEvent(clock)
	var pubErr error
	vclock.Go(clock, func() {
		defer pubDone.Fire()
		pubErr = c.PublishValues(ctx, "t", [][]byte{{10}, {11}, {12}, {13}})
	})
	if !clock.Sleep(ctx, time.Second) {
		t.Fatal("sleep interrupted")
	}
	if err := c.FailShard(reps[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.FreezeReplica("t", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if !pubDone.Wait(ctx) {
		t.Fatal("publish never completed")
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	deadline := clock.Now().Add(time.Minute)
	for c.UnderReplicated() != 0 {
		if clock.Now().After(deadline) {
			t.Fatal("replication never drained")
		}
		clock.Sleep(ctx, 10*time.Millisecond)
	}
	if r := c.Repairs(); r != 0 {
		t.Fatalf("repairs = %d with the repair-skipping defect enabled, want 0", r)
	}
	if d := c.CheckReplicaConsistency("t"); len(d) == 0 {
		t.Fatal("defect left no detectable divergence — the invariant has nothing to catch")
	}
}

// assertReplicaLogsIdentical compares every follower's retained log
// against its leader's, message for message (offset, key, value, epoch
// chain), over the overlap of their retained ranges.
func assertReplicaLogsIdentical(t *testing.T, c *Cluster, topic string, part int) {
	t.Helper()
	reps, err := c.ReplicasOf(topic, part)
	if err != nil {
		t.Fatal(err)
	}
	lb := c.shards[reps[0]]
	lSpans := lb.epochSpans(topic, part)
	lEnd, err := lb.EndOffset(topic, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range reps[1:] {
		fb := c.shards[f]
		fEnd, err := fb.EndOffset(topic, part)
		if err != nil {
			t.Fatal(err)
		}
		if fEnd != lEnd {
			t.Fatalf("shard %d log end %d != leader end %d", f, fEnd, lEnd)
		}
		fSpans := fb.epochSpans(topic, part)
		if fmt.Sprint(fSpans) != fmt.Sprint(lSpans) {
			t.Fatalf("shard %d epoch chain %v != leader chain %v", f, fSpans, lSpans)
		}
		lo := mustOldest(t, lb, topic, part)
		if ff := mustOldest(t, fb, topic, part); ff > lo {
			lo = ff
		}
		for o := lo; o < lEnd; {
			// replBatch serves one-segment views: walk both logs in steps.
			lMsgs, _, _, _ := lb.replBatch(topic, part, o, 1024)
			fMsgs, _, _, _ := fb.replBatch(topic, part, o, 1024)
			n := len(lMsgs)
			if len(fMsgs) < n {
				n = len(fMsgs)
			}
			if n == 0 {
				t.Fatalf("shard %d: no messages served at offset %d (leader %d, follower %d)",
					f, o, len(lMsgs), len(fMsgs))
			}
			for i := 0; i < n; i++ {
				lm, fm := lMsgs[i], fMsgs[i]
				if lm.Offset != fm.Offset || string(lm.Key) != string(fm.Key) || string(lm.Value) != string(fm.Value) {
					t.Fatalf("shard %d offset %d: message %+v != leader %+v", f, lm.Offset, fm, lm)
				}
			}
			o += int64(n)
		}
	}
}

func mustOldest(t *testing.T, b *shardLog, topic string, part int) int64 {
	t.Helper()
	o, err := b.OldestOffset(topic, part)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestReplicationFaultProperty is the randomized replication-fault
// property test: over 10 seeds, a producer streams through an RF-3
// cluster while link-lag windows, torn replication streams, and one
// leader loss land at seed-driven instants. Three properties must hold
// on every seed: the acknowledged watermark advances monotonically and
// gaplessly (checked inline via OnAcked), replication lag drains to zero
// once faults recover, and every replica log is identical to its
// leader's after the drain — divergence repaired, nothing torn. Run
// under -race in CI at GOMAXPROCS=4.
func TestReplicationFaultProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		shards = 3
		rf     = 3
		parts  = 2
		total  = 400
	)
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := vclock.NewVirtual(vclock.Epoch)
			clock.Adopt()
			defer clock.Leave()
			// Per-seed xorshift: deterministic fault interleavings without
			// math/rand (seed-audit rule 1).
			rng := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}

			var mu sync.Mutex
			lastAcked := make([]int64, parts)
			var ackViolations []string
			c := NewCluster(ClusterConfig{
				Shards: shards, Replication: rf, SegmentSize: 64,
				HandoffDelay: 20 * time.Millisecond,
				AppendCost:   10 * time.Microsecond,
				Clock:        clock,
				OnAcked: func(_ string, p int, from, to int64) {
					mu.Lock()
					if from != lastAcked[p] || to <= from {
						ackViolations = append(ackViolations,
							fmt.Sprintf("partition %d: acked moved %d->%d, last seen %d", p, from, to, lastAcked[p]))
					}
					lastAcked[p] = to
					mu.Unlock()
				},
			})
			defer c.Close()
			if err := c.CreateTopic("t", parts); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			var pubErr error
			pubDone := vclock.NewEvent(clock)
			vclock.Go(clock, func() {
				defer pubDone.Fire()
				payload := []byte("replicated-payload")
				sent := 0
				for sent < total {
					k := 1 + next(16)
					if k > total-sent {
						k = total - sent
					}
					values := make([][]byte, k)
					for i := range values {
						values[i] = payload
					}
					if pubErr = c.PublishValues(ctx, "t", values); pubErr != nil {
						return
					}
					sent += k
					if !clock.Sleep(ctx, time.Millisecond) {
						return
					}
				}
			})

			// Seed-driven fault storm, interleaved with the producer in
			// virtual time; one leader loss lands at a fixed op index.
			failed := false
			for op := 0; !pubDone.Fired(); op++ {
				switch next(6) {
				case 0: // stretch a random link
					a := next(shards)
					b := (a + 1 + next(shards-1)) % shards
					if err := c.SetLinkLag(a, b, float64(1+next(6))); err != nil {
						t.Fatal(err)
					}
				case 1: // heal a random link
					a := next(shards)
					b := (a + 1 + next(shards-1)) % shards
					if err := c.SetLinkLag(a, b, 1); err != nil {
						t.Fatal(err)
					}
				case 2: // tear one replication stream
					if err := c.FreezeReplica("t", next(parts), next(rf-1), true); err != nil {
						t.Fatal(err)
					}
				case 3: // resume every stream of a random partition
					p := next(parts)
					for s := 0; s < rf-1; s++ {
						if err := c.FreezeReplica("t", p, s, false); err != nil {
							t.Fatal(err)
						}
					}
				}
				if op == 40 && !failed {
					failed = true
					if lead, err := c.LeaderOf("t", 0); err == nil {
						if err := c.FailShard(lead); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !clock.Sleep(ctx, 5*time.Millisecond) {
					t.Fatal("sleep interrupted")
				}
			}
			if pubErr != nil {
				t.Fatal(pubErr)
			}

			// Recover every fault, then the lag bound must drain to zero.
			for p := 0; p < parts; p++ {
				for s := 0; s < rf-1; s++ {
					if err := c.FreezeReplica("t", p, s, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			for a := 0; a < shards; a++ {
				for b := a + 1; b < shards; b++ {
					if err := c.SetLinkLag(a, b, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			deadline := clock.Now().Add(5 * time.Minute)
			for c.UnderReplicated() != 0 {
				if clock.Now().After(deadline) {
					t.Fatalf("replication lag never drained: %d partitions under-replicated", c.UnderReplicated())
				}
				clock.Sleep(ctx, 20*time.Millisecond)
			}
			mu.Lock()
			av := ackViolations
			mu.Unlock()
			if len(av) != 0 {
				t.Fatalf("acknowledged watermark not monotone/gapless: %v", av)
			}
			if d := c.CheckReplicaConsistency("t"); len(d) != 0 {
				t.Fatalf("diverged replicas after drain: %v", d)
			}
			for p := 0; p < parts; p++ {
				assertReplicaLogsIdentical(t, c, "t", p)
			}
		})
	}
}

// TestClusterCloseMidHandoffUnwindsCleanly is the teardown regression
// test: publishes parked on the quorum watermark, publishes and fetches
// parked behind a handoff fence, and fetches canceled by their context
// must all unwind — cancellation returns ctx.Err() while the cluster
// stays live, and a Close in the middle of a handoff window releases
// every parked caller with ErrBrokerClosed and leaks no goroutines.
func TestClusterCloseMidHandoffUnwindsCleanly(t *testing.T) {
	base := runtime.NumGoroutine()
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 3, HandoffDelay: 10 * time.Second,
		AppendCost: 10 * time.Microsecond, Clock: clock,
	})
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// A parked fetch honors context cancellation while the cluster is up.
	cctx, cancel := context.WithCancel(ctx)
	var cancelErr error
	cancelDone := vclock.NewEvent(clock)
	vclock.Go(clock, func() {
		defer cancelDone.Fire()
		_, cancelErr = c.Fetch(cctx, "t", 0, 3, 10) // nothing at 3: parks
	})
	if !clock.Sleep(ctx, 50*time.Millisecond) {
		t.Fatal("sleep interrupted")
	}
	cancel()
	if !cancelDone.Wait(ctx) {
		t.Fatal("canceled fetch never returned")
	}
	if !errors.Is(cancelErr, context.Canceled) {
		t.Fatalf("canceled fetch returned %v, want context.Canceled", cancelErr)
	}

	// Park a publish on the quorum watermark (torn follower)...
	if err := c.FreezeReplica("t", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	var quorumErr error
	quorumDone := vclock.NewEvent(clock)
	vclock.Go(clock, func() {
		defer quorumDone.Fire()
		quorumErr = c.PublishValues(ctx, "t", [][]byte{{9}, {9}})
	})
	if !clock.Sleep(ctx, 50*time.Millisecond) {
		t.Fatal("sleep interrupted")
	}
	// ...then fence the partition mid-handoff (10s window, never walked
	// to completion) and park a publish and a fetch behind the fence.
	lead, err := c.LeaderOf("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard(lead); err != nil {
		t.Fatal(err)
	}
	var fencePubErr, fenceFetchErr error
	fencePubDone := vclock.NewEvent(clock)
	fenceFetchDone := vclock.NewEvent(clock)
	vclock.Go(clock, func() {
		defer fencePubDone.Fire()
		_, fencePubErr = c.Publish(ctx, "t", nil, []byte("fenced"))
	})
	vclock.Go(clock, func() {
		defer fenceFetchDone.Fire()
		_, fenceFetchErr = c.Fetch(ctx, "t", 0, 0, 10)
	})
	if !clock.Sleep(ctx, 100*time.Millisecond) {
		t.Fatal("sleep interrupted")
	}
	if quorumDone.Fired() || fencePubDone.Fired() || fenceFetchDone.Fired() {
		t.Fatal("a parked caller completed while fenced/unacknowledged")
	}

	// Close mid-handoff: every parked caller unwinds with ErrBrokerClosed.
	c.Close()
	for _, w := range []*vclock.Event{quorumDone, fencePubDone, fenceFetchDone} {
		if !w.Wait(ctx) {
			t.Fatal("parked caller never returned after Close")
		}
	}
	for name, err := range map[string]error{
		"quorum publish": quorumErr, "fenced publish": fencePubErr, "fenced fetch": fenceFetchErr,
	} {
		if !errors.Is(err, ErrBrokerClosed) {
			t.Fatalf("%s returned %v after Close, want ErrBrokerClosed", name, err)
		}
	}
	// No leaked goroutines: catch-up runners, fence walkers and parked
	// callers all exit. The fence walker parks in a virtual sleep whose
	// context Close just canceled, and canceled sleepers are reaped by
	// the scheduler's sweep on its next pass — so keep driving the clock
	// while polling (the wall-clock sleep lets the reaped goroutines'
	// exits land; they are asynchronous to the sweep).
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		clock.Sleep(ctx, time.Millisecond)
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after Close: %d > %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
