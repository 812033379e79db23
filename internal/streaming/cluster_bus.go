package streaming

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"gopilot/internal/vclock"
)

// The Cluster's Bus surface: the replicated-log data plane. Publishes
// append on each partition's leader shard and park until the batch is
// acknowledged on quorum (every full member holds it); fetches serve
// zero-copy views from the leader's log capped at the acknowledged
// watermark; commits route to the leader and advance the coordinator's
// cluster-truth mark. A leader handoff mid-call re-routes transparently:
// parked publishes re-append their un-acknowledged suffix to the new
// leader, parked fetches re-resolve the leader on wake.

// pubScratch is the reusable workspace of one publish call: per-message
// partition assignment, per-partition counts and byte totals, and the
// counting-sorted index order. Pooled so a steady-state publish allocates
// nothing beyond the log segments themselves.
type pubScratch struct {
	assign []int32 // partition per message
	order  []int32 // message indices grouped by partition, publish order kept
	counts []int32 // messages per partition
	fill   []int32 // counting-sort cursor, then per-partition group ends
	bytes  []int64 // payload bytes per partition
}

var pubScratchPool = sync.Pool{New: func() any { return new(pubScratch) }}

// partitionOf places a keyed message: FNV-1a of the key modulo the
// partition count.
func partitionOf(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// pubRec tracks one partition's sub-batch through a cluster publish:
// where it landed ([s, e) on the leader under `epoch`), which batch
// indices it carries, and the result slots it fills.
type pubRec struct {
	p     int
	idxs  []int32
	res   []Message // len(idxs) result slots, nil for PublishValues
	add   int64     // payload bytes of idxs
	s, e  int64
	epoch int
}

// Partitions returns a topic's partition count.
func (c *Cluster) Partitions(name string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrBrokerClosed
	}
	t, ok := c.topics[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return len(t.parts), nil
}

// Publish appends one message through the replicated log, returning once
// it is acknowledged on quorum (see Bus.Publish).
func (c *Cluster) Publish(ctx context.Context, topic string, key, value []byte) (Message, error) {
	out := make([]Message, 0, 1)
	err := c.publish(ctx, topic, 1, func(int) ([]byte, []byte) { return key, value }, &out)
	if err != nil {
		return Message{}, err
	}
	return out[0], nil
}

// PublishBatch appends a batch of (key, value) pairs, returning once
// every sub-batch is acknowledged on quorum (see Bus.PublishBatch for the
// result contract).
func (c *Cluster) PublishBatch(ctx context.Context, topic string, kvs [][2][]byte) ([]Message, error) {
	out := make([]Message, 0, len(kvs))
	err := c.publish(ctx, topic, len(kvs), func(i int) ([]byte, []byte) { return kvs[i][0], kvs[i][1] }, &out)
	return out, err
}

// PublishValues appends a key-less batch (the bulk-ingest fast path).
func (c *Cluster) PublishValues(ctx context.Context, topic string, values [][]byte) error {
	return c.publish(ctx, topic, len(values), func(i int) ([]byte, []byte) { return nil, values[i] }, nil)
}

// publish is the shared producer path: assign partitions under the
// cluster lock, append each sub-batch on its partition's current leader,
// then park until every sub-batch is acknowledged on quorum. A handoff
// while parked re-appends the un-acknowledged suffix — the prefix below
// the handoff's truncation point survived on the promoted log — so a
// publish that returns nil has every message durable on every full
// member.
func (c *Cluster) publish(ctx context.Context, topicName string, n int, kv func(int) ([]byte, []byte), out *[]Message) error {
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrBrokerClosed
	}
	t, ok := c.topics[topicName]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownTopic, topicName)
	}
	nparts := len(t.parts)

	// The batch is traversed once under the cluster lock — assignment
	// (key hash, or the topic's round-robin cursor), counts and byte totals
	// in the same pass — and a counting sort over pooled scratch yields
	// each partition's indices in publish order without growing
	// per-partition slices: one kv() call per message and zero
	// steady-state allocations for the grouping stage.
	sc := pubScratchPool.Get().(*pubScratch)
	defer pubScratchPool.Put(sc)
	if cap(sc.assign) < n {
		sc.assign = make([]int32, n)
		sc.order = make([]int32, n)
	}
	if cap(sc.counts) < nparts {
		sc.counts = make([]int32, nparts)
		sc.fill = make([]int32, nparts)
		sc.bytes = make([]int64, nparts)
	}
	assign, order := sc.assign[:n], sc.order[:n]
	counts, fill, bytes := sc.counts[:nparts], sc.fill[:nparts], sc.bytes[:nparts]
	for p := range counts {
		counts[p], bytes[p] = 0, 0
	}
	for i := 0; i < n; i++ {
		k, v := kv(i)
		var p int
		if len(k) > 0 {
			p = partitionOf(k, nparts)
		} else {
			p = t.rr % nparts
			t.rr++
		}
		assign[i] = int32(p)
		counts[p]++
		bytes[p] += int64(len(k) + len(v))
	}
	c.mu.Unlock()

	// Counting sort: scatter message indices into order, grouped by
	// partition with publish order preserved inside each group. After the
	// scatter, fill[p] is the end of partition p's group.
	var sum int32
	for p := range counts {
		fill[p] = sum
		sum += counts[p]
	}
	for i := 0; i < n; i++ {
		p := assign[i]
		order[fill[p]] = int32(i)
		fill[p]++
	}

	var res []Message
	var base int
	if out != nil {
		base = len(*out)
		*out = append(*out, make([]Message, n)...)
		res = (*out)[base:]
	}

	// Phase 1: append every sub-batch on its partition's current leader.
	recs := make([]pubRec, 0, 4)
	var latest time.Time
	var lo int32
	for p := 0; p < nparts; p++ {
		from := lo
		idxs := order[lo:fill[p]]
		slot := res
		if res != nil {
			slot = res[lo:fill[p]]
		}
		lo = fill[p]
		if len(idxs) == 0 {
			continue
		}
		r := pubRec{p: p, idxs: idxs, res: slot, add: bytes[p]}
		if err := c.appendToLeader(ctx, t, &r, kv, &latest); err != nil {
			if out != nil {
				// Only the sub-batches before this one were appended; results
				// are grouped by partition, so they are exactly the prefix.
				*out = (*out)[:base+int(from)]
			}
			return err
		}
		recs = append(recs, r)
	}

	// Phase 2: wait for quorum acknowledgement, re-appending across
	// handoffs.
	for ri := range recs {
		if err := c.awaitAcked(ctx, t, &recs[ri], kv, &latest); err != nil {
			return err
		}
	}

	// Phase 3: one modeled sleep to the slowest partition's append finish
	// (acknowledgement waits above advance virtual time on their own).
	if wait := latest.Sub(c.clock.Now()); wait > 0 {
		if !c.clock.Sleep(ctx, wait) {
			return ctx.Err()
		}
	}
	return nil
}

// appendToLeader appends one sub-batch on its partition's current
// leader, parking while the partition is fenced mid-handoff and
// re-routing if the leader dies underneath the call. Fills r.s, r.e and
// r.epoch; res slots (when present) receive the appended messages.
func (c *Cluster) appendToLeader(ctx context.Context, t *fedTopic, r *pubRec, kv func(int) ([]byte, []byte), latest *time.Time) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrBrokerClosed
		}
		p := t.parts[r.p]
		if !p.availableAt.IsZero() {
			w := vclock.NewEvent(c.clock)
			registerEvent(&c.ctrl, w)
			c.mu.Unlock()
			if !w.Wait(ctx) {
				w.Fire()
				return ctx.Err()
			}
			continue
		}
		leader := p.replicas[0]
		r.epoch = p.epoch
		c.mu.Unlock()
		s, e, finish, err := c.shards[leader].clusterAppend(ctx, t.name, r.p, r.idxs, kv, r.add, r.res)
		if err != nil {
			if errors.Is(err, ErrBrokerClosed) && !c.isClosed() {
				continue // the leader died under us; retry on its successor
			}
			return err
		}
		r.s, r.e = s, e
		if finish.After(*latest) {
			*latest = finish
		}
		// Under RF=1 the append itself is the quorum: advance the
		// watermark now (with followers, the catch-up runners advance it).
		c.mu.Lock()
		if !c.closed {
			c.recomputeAckedLocked(t, t.parts[r.p])
		}
		c.mu.Unlock()
		return nil
	}
}

// awaitAcked parks until a sub-batch's offset range is below the
// partition's acknowledged watermark. If a handoff intervened, the
// suffix above that handoff's truncation point was discarded with the
// deposed leader's log: re-append it to the new leader (the acknowledged
// prefix stays where it is) and keep waiting.
func (c *Cluster) awaitAcked(ctx context.Context, t *fedTopic, r *pubRec, kv func(int) ([]byte, []byte), latest *time.Time) error {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrBrokerClosed
		}
		p := t.parts[r.p]
		if p.acked >= r.e {
			c.mu.Unlock()
			return nil
		}
		if p.epoch != r.epoch {
			// The truncation point of the *first* handoff after our append
			// bounds what survived; later handoffs only truncate at or
			// above it (the watermark is monotone).
			durable := p.ackedAtEpoch[r.epoch+1]
			if durable > r.e {
				durable = r.e
			}
			skip := durable - r.s
			if skip < 0 {
				skip = 0
			}
			if skip >= int64(len(r.idxs)) {
				// The whole sub-batch survived; wait out the new epoch.
				r.epoch = p.epoch
				c.mu.Unlock()
				continue
			}
			if !p.availableAt.IsZero() {
				w := vclock.NewEvent(c.clock)
				registerEvent(&c.ctrl, w)
				c.mu.Unlock()
				if !w.Wait(ctx) {
					w.Fire()
					return ctx.Err()
				}
				continue
			}
			leader := p.replicas[0]
			newEpoch := p.epoch
			c.mu.Unlock()
			r.idxs = r.idxs[skip:]
			if r.res != nil {
				r.res = r.res[skip:]
			}
			r.add = 0
			for _, i := range r.idxs {
				k, v := kv(int(i))
				r.add += int64(len(k) + len(v))
			}
			s, e, finish, err := c.shards[leader].clusterAppend(ctx, t.name, r.p, r.idxs, kv, r.add, r.res)
			if err != nil {
				if errors.Is(err, ErrBrokerClosed) && !c.isClosed() {
					continue
				}
				return err
			}
			r.s, r.e, r.epoch = s, e, newEpoch
			if finish.After(*latest) {
				*latest = finish
			}
			c.mu.Lock()
			if !c.closed {
				c.recomputeAckedLocked(t, t.parts[r.p])
			}
			c.mu.Unlock()
			continue
		}
		// Park until the watermark advances or the epoch moves; both fire
		// the partition's ackWait list.
		w := vclock.NewEvent(c.clock)
		registerEvent(&p.ackWait, w)
		c.mu.Unlock()
		if !w.Wait(ctx) {
			w.Fire()
			return ctx.Err()
		}
		if c.isClosed() {
			return ErrBrokerClosed
		}
	}
}

// Fetch long-polls one partition (see FetchOrWait).
func (c *Cluster) Fetch(ctx context.Context, topic string, partition int, offset int64, max int) ([]Message, error) {
	_, msgs, err := c.FetchOrWait(ctx, topic, []int{partition}, []int64{offset}, 0, max)
	return msgs, err
}

// FetchOrWait is the consumer hot path (see Bus.FetchOrWait): one
// modeled long-poll over a set of partitions, served from each
// partition's leader log and capped at the acknowledged watermark —
// consumers never see offsets that could be truncated by a handoff. A
// partition mid-handoff or under an injected stall parks its fetchers on
// the control plane; leadership changes re-resolve transparently.
func (c *Cluster) FetchOrWait(ctx context.Context, topicName string, parts []int, offsets []int64, start, max int) (int, []Message, error) {
	nparts, err := c.Partitions(topicName)
	if err != nil {
		return 0, nil, err
	}
	if len(parts) == 0 {
		return 0, nil, errors.New("streaming: FetchOrWait needs at least one partition")
	}
	if len(offsets) != len(parts) {
		return 0, nil, fmt.Errorf("streaming: FetchOrWait got %d offsets for %d partitions", len(offsets), len(parts))
	}
	for _, pi := range parts {
		if pi < 0 || pi >= nparts {
			return 0, nil, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
		}
	}
	if max <= 0 {
		max = 512
	}
	if start < 0 {
		start = 0
	}
	if !c.clock.Sleep(ctx, c.cfg.FetchLatency) {
		return 0, nil, ctx.Err()
	}
	for {
		var w *vclock.Event
		retry := false
		for i := 0; i < len(parts) && !retry; i++ {
			j := (start + i) % len(parts)
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				if w != nil {
					w.Fire()
				}
				return 0, nil, ErrBrokerClosed
			}
			_, p, _ := c.fedPartition(topicName, parts[j])
			blocked := p.stalled || !p.availableAt.IsZero()
			leader := p.replicas[0]
			acked := p.acked
			if blocked {
				if w == nil {
					w = vclock.NewEvent(c.clock)
				}
				registerEvent(&c.ctrl, w)
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
			lp, err := c.shards[leader].partRef(topicName, parts[j])
			if err != nil {
				// The leader died between snapshot and use: treat as a
				// control change and re-resolve next round.
				if w == nil {
					w = vclock.NewEvent(c.clock)
				}
				c.mu.Lock()
				registerEvent(&c.ctrl, w)
				c.mu.Unlock()
				retry = true
				continue
			}
			lp.mu.Lock()
			if offsets[j] < lp.first {
				oor := &OffsetOutOfRangeError{Topic: topicName, Partition: parts[j],
					Offset: offsets[j], Oldest: lp.first}
				lp.mu.Unlock()
				if w != nil {
					w.Fire()
				}
				return j, nil, oor
			}
			if limit := acked - offsets[j]; limit > 0 {
				m := max
				if int64(m) > limit {
					m = int(limit)
				}
				if batch := lp.view(offsets[j], m, c.cfg.SegmentSize); len(batch) > 0 {
					lp.mu.Unlock()
					if w != nil {
						w.Fire() // mark registrations on earlier partitions dead
					}
					return j, batch, nil
				}
			}
			if w == nil {
				w = vclock.NewEvent(c.clock)
			}
			registerEvent(&lp.waiters, w)
			lp.mu.Unlock()
			c.mu.Lock()
			registerEvent(&c.ctrl, w)
			c.mu.Unlock()
		}
		// No watermark can advance between this round's view checks and
		// the registrations above: nothing here parks, so no other
		// participant runs in between.
		if retry {
			if w != nil {
				w.Fire()
			}
			continue
		}
		if c.isClosed() {
			w.Fire()
			return 0, nil, ErrBrokerClosed
		}
		if !w.Wait(ctx) {
			w.Fire()
			return 0, nil, ctx.Err()
		}
		if c.isClosed() {
			return 0, nil, ErrBrokerClosed
		}
	}
}

// Commit acknowledges consumption through an offset: clamped to the
// acknowledged watermark (uncommitted ≥ unacknowledged, always), applied
// on the leader's log (whose OnCommit is the one observable commit
// stream), then recorded as the coordinator's cluster-truth mark — the
// mark a promoted leader is restored to, so cursors survive handoffs.
func (c *Cluster) Commit(topic string, partition int, through int64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrBrokerClosed
	}
	_, p, err := c.fedPartition(topic, partition)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if through > p.acked {
		through = p.acked
	}
	leader := p.replicas[0]
	c.mu.Unlock()
	if err := c.shards[leader].Commit(topic, partition, through); err != nil {
		if errors.Is(err, ErrBrokerClosed) && !c.isClosed() {
			// The leader died mid-commit; the commit is lost with it — the
			// consumer re-delivers from its last durable cursor, which is
			// the at-least-once contract. Report closed only when the
			// cluster itself is gone.
			return nil
		}
		return err
	}
	c.mu.Lock()
	if _, p, err := c.fedPartition(topic, partition); err == nil && through > p.commit {
		p.commit = through
	}
	c.mu.Unlock()
	return nil
}

// Committed returns a partition's coordinator commit mark (the next
// uncommitted offset, as the cluster-truth cursor).
func (c *Cluster) Committed(topic string, partition int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrBrokerClosed
	}
	_, p, err := c.fedPartition(topic, partition)
	if err != nil {
		return 0, err
	}
	return p.commit, nil
}

// EndOffset returns the next offset awaiting quorum acknowledgement on a
// partition — the end of what a consumer can ever fetch, which is the
// end of the log as the Bus contract sees it.
func (c *Cluster) EndOffset(topic string, partition int) (int64, error) {
	return c.AckedOffset(topic, partition)
}
