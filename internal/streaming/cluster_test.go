package streaming

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gopilot/internal/vclock"
)

// TestClusterPlacementDeterministic pins that placement is a pure
// function of configuration: two clusters built the same way place every
// partition identically, and leaders spread across the ring.
func TestClusterPlacementDeterministic(t *testing.T) {
	clock := fastClock(t)
	build := func() *Cluster {
		c := NewCluster(ClusterConfig{Shards: 3, Replication: 2, Clock: clock})
		if err := c.CreateTopic("events", 6); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	pa, pb := a.Placement(), b.Placement()
	if len(pa) != 6 || fmt.Sprint(pa) != fmt.Sprint(pb) {
		t.Fatalf("placement not deterministic:\n%v\nvs\n%v", pa, pb)
	}
	leaders := map[int]int{}
	for _, p := range pa {
		if len(p.Replicas) != 2 || p.Replicas[0] == p.Replicas[1] {
			t.Fatalf("bad replica set for %s[%d]: %v", p.Topic, p.Partition, p.Replicas)
		}
		leaders[p.Leader]++
	}
	if len(leaders) != 3 {
		t.Fatalf("leaders concentrated on %d of 3 shards: %v", len(leaders), leaders)
	}
}

// TestClusterRefusesLastLiveShard: failing a shard is permanent, failing
// the last live shard is refused (no cold storage to recover from), and
// re-failing a dead shard is a no-op.
func TestClusterRefusesLastLiveShard(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{Shards: 2, Replication: 2, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard(5); err == nil {
		t.Fatal("failing an unknown shard succeeded")
	}
	if err := c.FailShard(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailShard(0); err != nil {
		t.Fatalf("re-failing a dead shard should be a no-op, got %v", err)
	}
	if err := c.FailShard(1); err == nil {
		t.Fatal("failing the last live shard succeeded")
	}
	if got := c.LiveShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("live shards = %v, want [1]", got)
	}
}

// TestClusterShardLossHandoff drives the full failover path in virtual
// time: failing a partition's leader fences the partition for exactly
// HandoffDelay (a parked fetch completes no earlier than the handoff
// instant), bumps the epoch, promotes the surviving replica, and
// re-replicates onto a recruit until the cluster is fully replicated
// again.
func TestClusterShardLossHandoff(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	const delay = 500 * time.Millisecond
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 2, HandoffDelay: delay,
		AppendCost: 10 * time.Microsecond, FetchLatency: 100 * time.Microsecond,
		Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Publish(ctx, "t", nil, []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Locate the partition that message landed on (round-robin from 0).
	const part = 0
	lead, err := c.LeaderOf("t", part)
	if err != nil {
		t.Fatal(err)
	}
	old, err := c.ReplicasOf("t", part)
	if err != nil {
		t.Fatal(err)
	}

	failedAt := clock.Now()
	if err := c.FailShard(lead); err != nil {
		t.Fatal(err)
	}
	if got := c.Handoffs(); got < 1 {
		t.Fatalf("handoffs = %d, want >= 1", got)
	}
	if ep, _ := c.Epoch("t", part); ep != 1 {
		t.Fatalf("epoch = %d, want 1", ep)
	}
	if nl, _ := c.LeaderOf("t", part); nl != old[1] {
		t.Fatalf("new leader = %d, want promoted follower %d", nl, old[1])
	}

	// A fetch against the fenced partition parks and completes no earlier
	// than the handoff instant.
	var fetchedAt time.Time
	var fetchErr error
	fetched := vclock.NewEvent(clock)
	vclock.Go(clock, func() {
		defer fetched.Fire()
		_, fetchErr = c.Fetch(ctx, "t", part, 0, 10)
		fetchedAt = clock.Now()
	})
	if !clock.Sleep(ctx, 2*delay) {
		t.Fatal("sleep interrupted")
	}
	if !fetched.Wait(ctx) {
		t.Fatal("fetch never completed")
	}
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	if woke := fetchedAt.Sub(failedAt); woke < delay {
		t.Fatalf("fetch completed %v after failure, before the %v handoff delay", woke, delay)
	}

	// Re-replication reconverged: every partition back at 2 live replicas,
	// none still syncing, none placed on the dead shard.
	if n := c.UnderReplicated(); n != 0 {
		t.Fatalf("%d partitions still under-replicated after handoff", n)
	}
	for _, p := range c.Placement() {
		if len(p.Replicas) != 2 {
			t.Fatalf("%s[%d] has %d replicas", p.Topic, p.Partition, len(p.Replicas))
		}
		for _, r := range p.Replicas {
			if r == lead {
				t.Fatalf("%s[%d] still placed on dead shard %d", p.Topic, p.Partition, lead)
			}
		}
	}
}

// TestClusterSeverLinkFencesPublish: severing the leader->follower
// replication link of a partition blocks publish acknowledgement until
// the link heals; links between shards not replicating the partition
// change nothing.
func TestClusterSeverLinkFencesPublish(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	c := NewCluster(ClusterConfig{
		Shards: 3, Replication: 2, AppendCost: 10 * time.Microsecond, Clock: clock,
	})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	reps, err := c.ReplicasOf("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	leader, follower := reps[0], reps[1]
	bystander := 0
	for s := 0; s < 3; s++ {
		if s != leader && s != follower {
			bystander = s
		}
	}
	ctx := context.Background()

	// A link not on the replication path fences nothing.
	if err := c.SeverLink(follower, bystander); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(ctx, "t", nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.HealLink(follower, bystander); err != nil {
		t.Fatal(err)
	}

	// The leader<->follower link fences publishes until healed.
	if err := c.SeverLink(leader, follower); err != nil {
		t.Fatal(err)
	}
	var pubAt time.Time
	var pubErr error
	published := vclock.NewEvent(clock)
	vclock.Go(clock, func() {
		defer published.Fire()
		_, pubErr = c.Publish(ctx, "t", nil, []byte("fenced"))
		pubAt = clock.Now()
	})
	const window = 200 * time.Millisecond
	severedAt := clock.Now()
	if !clock.Sleep(ctx, window) {
		t.Fatal("sleep interrupted")
	}
	if published.Fired() {
		t.Fatal("publish acknowledged while the replication link was severed")
	}
	if err := c.HealLink(leader, follower); err != nil {
		t.Fatal(err)
	}
	if !published.Wait(ctx) {
		t.Fatal("publish never completed after heal")
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	if held := pubAt.Sub(severedAt); held < window {
		t.Fatalf("publish acknowledged %v after sever, before the link healed", held)
	}
	if err := c.SeverLink(leader, leader); err == nil {
		t.Fatal("severing a self-link succeeded")
	}
}

// TestFetchTrimmedOffsetTypedError pins the retention contract's error
// surface: a fetch below the trimmed floor fails with
// OffsetOutOfRangeError (matching ErrOffsetOutOfRange, carrying the
// oldest retained offset), and fetches at the floor still serve.
func TestFetchTrimmedOffsetTypedError(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	defer clock.Leave()
	const segSize = 4
	c := NewCluster(ClusterConfig{Shards: 1, Replication: 1, SegmentSize: segSize, Clock: clock})
	defer c.Close()
	if err := c.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := c.Publish(ctx, "t", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit("t", 0, 9); err != nil {
		t.Fatal(err)
	}
	// Persisting the cursor drives retention: segments wholly below offset
	// 9 trim (two full segments of 4), leaving the floor at 8.
	c.Offsets().Save("g", "t", 0, 9)
	if oldest, err := c.OldestOffset("t", 0); err != nil || oldest != 8 {
		t.Fatalf("oldest = %d, %v; want 8", oldest, err)
	}

	_, err := c.Fetch(ctx, "t", 0, 0, 10)
	if err == nil {
		t.Fatal("fetch below the retention floor succeeded")
	}
	if !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("error does not match ErrOffsetOutOfRange: %v", err)
	}
	var oor *OffsetOutOfRangeError
	if !errors.As(err, &oor) {
		t.Fatalf("error is not *OffsetOutOfRangeError: %T", err)
	}
	if oor.Topic != "t" || oor.Partition != 0 || oor.Offset != 0 || oor.Oldest != 8 {
		t.Fatalf("wrong coordinates: %+v", oor)
	}

	msgs, err := c.Fetch(ctx, "t", 0, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Offset != 8 || msgs[1].Offset != 9 {
		t.Fatalf("fetch at the floor returned %d msgs starting at %d, want [8,10)", len(msgs), msgs[0].Offset)
	}
}

// TestRetentionBoundProperty is the bounded-memory property test: over
// 10 randomized seeds, a randomized interleaving of publishes, consumer
// commits, and the trims they trigger must keep resident bytes within
// the retention contract's bound at every persist instant — resident
// counts exactly the bytes in [oldest, end), the floor never passes the
// low-watermark of persisted cursors, and it trails it by less than one
// segment. Once every consumer has drained and persisted, at most one
// segment of bytes remains resident however many messages flowed
// through. Run under -race in CI at GOMAXPROCS=4.
func TestRetentionBoundProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		segSize    = 64
		payloadLen = 32
		total      = 2500
		maxBatch   = 48
	)
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := vclock.NewVirtual(vclock.Epoch)
			clock.Adopt()
			defer clock.Leave()
			// Per-seed xorshift: deterministic interleavings without
			// math/rand (seed-audit rule 1).
			rng := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}

			var cl *Cluster
			trims, evals := 0, 0
			lastOldest := int64(0)
			cl = NewCluster(ClusterConfig{
				Shards: 3, Replication: 2, SegmentSize: segSize,
				AppendCost: 10 * time.Microsecond, FetchLatency: 100 * time.Microsecond,
				Clock: clock,
				OnRetention: func(topic string, q int, resident, oldest int64) {
					evals++
					end, err := cl.EndOffset(topic, q)
					if err != nil {
						t.Error(err)
						return
					}
					lw, ok := cl.Offsets().LowWatermark(topic, q)
					if !ok {
						t.Error("retention evaluated with no registered group")
						return
					}
					if got, want := resident, (end-oldest)*payloadLen; got != want {
						t.Errorf("resident %d != bytes in [oldest,end) = %d", got, want)
					}
					if oldest > lw {
						t.Errorf("floor %d passed low-watermark %d", oldest, lw)
					}
					if lw-oldest >= segSize {
						t.Errorf("floor %d trails low-watermark %d by a full segment", oldest, lw)
					}
					if bound := (end - lw + segSize) * payloadLen; resident > bound {
						t.Errorf("resident %d exceeds bound %d (end %d, lw %d)", resident, bound, end, lw)
					}
					if oldest > lastOldest {
						lastOldest = oldest
						trims++
					}
				},
			})
			defer cl.Close()
			if err := cl.CreateTopic("t", 1); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			groups := [2]string{"fast", "slow"}
			var cursor [2]int64
			for i := range groups {
				cl.Offsets().Save(groups[i], "t", 0, 0) // register: floors the low-watermark
			}

			payload := make([]byte, payloadLen)
			published := 0
			for published < total || cursor[0] < total || cursor[1] < total {
				switch next(4) {
				case 0, 1: // publish a random batch
					if published == total {
						continue
					}
					k := 1 + next(maxBatch)
					if k > total-published {
						k = total - published
					}
					values := make([][]byte, k)
					for i := range values {
						values[i] = payload
					}
					if err := cl.PublishValues(ctx, "t", values); err != nil {
						t.Fatal(err)
					}
					published += k
				default: // one consumer fetches, commits, persists (trim instant)
					i := next(2)
					end, err := cl.EndOffset("t", 0)
					if err != nil {
						t.Fatal(err)
					}
					if cursor[i] >= end {
						continue // nothing to consume; Fetch would park
					}
					msgs, err := cl.Fetch(ctx, "t", 0, cursor[i], 1+next(96))
					if err != nil {
						t.Fatalf("consumer %s at %d: %v", groups[i], cursor[i], err)
					}
					cursor[i] += int64(len(msgs))
					if err := cl.Commit("t", 0, cursor[i]); err != nil {
						t.Fatal(err)
					}
					cl.Offsets().Save(groups[i], "t", 0, cursor[i])
				}
			}
			if evals == 0 || trims == 0 {
				t.Fatalf("property not exercised: %d evaluations, %d trims", evals, trims)
			}
			resident, err := cl.ResidentBytes("t")
			if err != nil {
				t.Fatal(err)
			}
			if resident > segSize*payloadLen {
				t.Fatalf("drained cluster retains %d bytes, want <= one segment (%d)", resident, segSize*payloadLen)
			}
			if oldest, _ := cl.OldestOffset("t", 0); oldest < total-segSize {
				t.Fatalf("final floor %d never approached the head (%d published)", oldest, total)
			}
		})
	}
}
