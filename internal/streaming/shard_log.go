package streaming

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gopilot/internal/plan"
	"gopilot/internal/vclock"
)

// shardLog is one shard's physical partitioned log: the topics,
// partitions and segments a Cluster shard holds, with the append,
// backpressure, commit and retention accounting of each partition. It is
// not a client surface — producers and consumers reach it only through
// the Cluster, which routes every call to the partition's leader shard
// (cluster_bus.go) and drives the replication hooks in replica_log.go.
type shardLog struct {
	cfg shardLogConfig

	mu          sync.Mutex
	topics      map[string]*topic
	order       []*topic // creation order: deterministic iteration for Close
	closed      bool
	commitDelay time.Duration // injected commit skew (chaos), zero normally
}

// shardLogConfig carries the broker-shaped fields of ClusterConfig (see
// there), with NewCluster's defaults already applied.
type shardLogConfig struct {
	AppendCost       time.Duration
	SegmentSize      int
	MaxInflightBytes int64
	OnCommit         func(topic string, partition int, from, through int64)
	Clock            vclock.Clock
}

type topic struct {
	name       string
	partitions []*partition
}

// segment is a fixed-size run of the partition log. msgs is allocated at
// full capacity once: appends never reallocate the backing array and
// sealed entries are never rewritten, so a sub-slice handed to a consumer
// remains valid and immutable while the writer keeps appending behind it.
// cum[i] is the partition-cumulative payload byte total through msgs[i]
// (inclusive), which makes the bytes of any committed offset range a
// two-lookup subtraction instead of a per-message walk.
type segment struct {
	msgs []Message
	cum  []int64
}

// newSegment allocates a segment with both arrays at full capacity in
// one struct-sized allocation each; capacities are exact so neither ever
// reallocates (the stable-backing-array invariant).
func newSegment(segSize int) *segment {
	return &segment{
		msgs: make([]Message, 0, segSize),
		cum:  make([]int64, 0, segSize),
	}
}

type partition struct {
	mu       sync.Mutex
	segs     []*segment
	end      int64     // next offset to be written
	nextFree time.Time // modeled time the partition finishes current appends

	// curEpoch is the leadership epoch stamped onto new appends; the
	// Cluster bumps it on every leader handoff (a partition that never
	// changed leader stays at epoch 0). epochs is the compact epoch-span chain of
	// the retained log: epochs[i] says offsets from epochs[i].Start up to
	// the next span's Start were appended under that epoch. One entry per
	// leadership change, so the chain stays tiny and is retained across
	// trims (divergence detection needs history below the current end).
	curEpoch int
	epochs   []plan.EpochSpan

	committed  int64 // offsets below this are consumer-acknowledged
	inflight   int64 // bytes in [committed, end): published, not yet committed
	totalBytes int64 // cumulative payload bytes ever appended (feeds segment.cum)

	// first is the oldest retained offset. Trim discards whole sealed
	// segments, so first is always segment-aligned: segs[0] begins at
	// first, and the segment holding offset o is segs[(o-first)/segSize].
	first int64
	// trimmedCum is the cumulative payload byte total through offset
	// first — the prefix the trimmed segments carried — so bytesThrough
	// stays a two-lookup subtraction across trims and resident bytes are
	// totalBytes - trimmedCum.
	trimmedCum int64

	waiters []*vclock.Event // consumers parked until data arrives
	space   []*vclock.Event // producers parked until inflight drops
}

// newShardLog creates one shard's empty log.
func newShardLog(cfg shardLogConfig) *shardLog {
	return &shardLog{cfg: cfg, topics: make(map[string]*topic)}
}

// CreateTopic creates a topic with n partitions. Creating an existing
// topic with the same partition count is a no-op.
func (b *shardLog) CreateTopic(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("streaming: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrBrokerClosed
	}
	if t, ok := b.topics[name]; ok {
		if len(t.partitions) != partitions {
			return fmt.Errorf("streaming: topic %q exists with %d partitions", name, len(t.partitions))
		}
		return nil
	}
	t := &topic{name: name, partitions: make([]*partition, partitions)}
	for i := range t.partitions {
		t.partitions[i] = &partition{}
	}
	b.topics[name] = t
	b.order = append(b.order, t)
	return nil
}

func (b *shardLog) topicByName(name string) (*topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrBrokerClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTopic, name)
	}
	return t, nil
}

// partRef resolves one partition of a topic, with bounds checking.
func (b *shardLog) partRef(topicName string, pi int) (*partition, error) {
	t, err := b.topicByName(topicName)
	if err != nil {
		return nil, err
	}
	if pi < 0 || pi >= len(t.partitions) {
		return nil, fmt.Errorf("streaming: partition %d out of range for %q", pi, topicName)
	}
	return t.partitions[pi], nil
}

// appendInPlace claims the next tail-segment slot and builds the message
// directly in it — no intermediate Message values, so the hot publish
// loop copies each field exactly once. Segments are allocated at full
// SegmentSize capacity, so the backing array of a segment never moves and
// entries below the published length are immutable — the invariants
// behind zero-copy fetch views. The partition-cumulative byte total is
// recorded alongside the slot for O(1) commit accounting. Caller holds
// p.mu; the returned pointer is only valid until the lock is released.
func (p *partition) appendInPlace(topic string, pi int, key, value []byte, published time.Time, segSize int) *Message {
	var seg *segment
	if len(p.segs) > 0 {
		seg = p.segs[len(p.segs)-1]
	}
	if seg == nil || len(seg.msgs) == segSize {
		seg = newSegment(segSize)
		p.segs = append(p.segs, seg)
	}
	seg.msgs = seg.msgs[:len(seg.msgs)+1]
	m := &seg.msgs[len(seg.msgs)-1]
	m.Topic = topic
	m.Partition = pi
	m.Offset = p.end
	m.Key = key
	m.Value = value
	m.Published = published
	if n := len(p.epochs); n == 0 || p.epochs[n-1].Epoch != p.curEpoch {
		p.epochs = append(p.epochs, plan.EpochSpan{Start: p.end, Epoch: p.curEpoch})
	}
	p.end++
	p.totalBytes += int64(len(key) + len(value))
	seg.cum = append(seg.cum, p.totalBytes)
	return m
}

// bytesThrough returns the cumulative payload bytes of offsets [0, o):
// two segment lookups, independent of how many messages the range spans.
// For o at or below the retention floor the trimmed prefix's total is
// the answer (commit marks never sit below the floor — Trim clamps to
// committed — so no caller asks inside the trimmed range). Caller holds
// p.mu.
func (p *partition) bytesThrough(o, segSize int64) int64 {
	if o <= p.first {
		return p.trimmedCum
	}
	i := o - 1 - p.first
	return p.segs[i/segSize].cum[i%segSize]
}

// view returns up to max messages starting at offset as a read-only
// sub-slice of one segment (callers may see fewer than max at a segment
// boundary and loop). Returns nil when offset is at the end of the log.
// Offsets below the retention floor are the caller's problem
// (Cluster.FetchOrWait turns them into OffsetOutOfRangeError before getting here). Caller
// holds p.mu; the returned view stays valid after release because
// segments never reallocate and sealed entries never change.
func (p *partition) view(offset int64, max, segSize int) []Message {
	if offset >= p.end || offset < p.first {
		return nil
	}
	rel := offset - p.first
	seg := p.segs[rel/int64(segSize)]
	lo := int(rel % int64(segSize))
	hi := len(seg.msgs)
	if hi-lo > max {
		hi = lo + max
	}
	return seg.msgs[lo:hi:hi]
}

// registerEvent parks w on one of a partition's waiter lists (data
// waiters or backpressure space waiters), pruning entries already fired.
// Every exit path of a parked call fires its event — including the
// abandoning ones (context canceled, broker closed, poll satisfied by
// another partition) — so stale registrations are recognizably dead and
// swept on the next registration. Without that, skewed traffic or
// repeatedly canceled publishes would grow a list by one event per
// wake-up until a publish, Commit or Close cleared it. Caller holds
// part.mu.
func registerEvent(list *[]*vclock.Event, w *vclock.Event) {
	live := (*list)[:0]
	for _, old := range *list {
		if !old.Fired() {
			live = append(live, old)
		}
	}
	*list = append(live, w)
}

// Commit acknowledges consumption of a partition through offset `through`
// (exclusive: offsets below it are consumed). It releases the committed
// bytes from the partition's in-flight account and wakes producers parked
// on backpressure. Commits are monotone; committing at or below the
// current mark is a no-op. Committing is what lets MaxInflightBytes
// throttle producers to consumer speed — consumers that never commit
// (plain Processors) must run against a broker without backpressure.
func (b *shardLog) Commit(topicName string, partitionIdx int, through int64) error {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return err
	}
	b.mu.Lock()
	delay := b.commitDelay
	b.mu.Unlock()
	if delay > 0 {
		// Injected commit skew (chaos): the acknowledgement is in flight for
		// `delay` of modeled time before it lands. Uncancellable — a skewed
		// commit still arrives, just late.
		b.cfg.Clock.Sleep(context.Background(), delay)
	}
	part.mu.Lock()
	if through > part.end {
		through = part.end
	}
	if through <= part.committed {
		part.mu.Unlock()
		return nil
	}
	segSize := int64(b.cfg.SegmentSize)
	freed := part.bytesThrough(through, segSize) - part.bytesThrough(part.committed, segSize)
	from := part.committed
	part.committed = through
	part.inflight -= freed
	if b.cfg.OnCommit != nil {
		b.cfg.OnCommit(topicName, partitionIdx, from, through)
	}
	// Coalesced space wakes: a parked producer needs inflight+add ≤ the
	// bound (or an idle partition), so while inflight still sits at or
	// above the bound every wake would be spurious — the producer would
	// re-check, re-register and park again, one scheduler round trip per
	// waiter per commit. Leave them parked until a commit makes progress
	// possible; they re-evaluate their own batch size on wake.
	var ws []*vclock.Event
	if part.inflight == 0 || part.inflight < b.cfg.MaxInflightBytes {
		ws = part.space
		part.space = nil
	}
	part.mu.Unlock()
	for _, w := range ws {
		w.Fire()
	}
	return nil
}

// SetCommitDelay sets this shard's injected commit skew (see
// Cluster.SetCommitDelay).
func (b *shardLog) SetCommitDelay(d time.Duration) {
	b.mu.Lock()
	b.commitDelay = d
	b.mu.Unlock()
}

// Trim discards log segments of one partition wholly below `below`,
// bounding resident memory under infinite streams. Only sealed (full)
// segments strictly under the mark are dropped, so the floor stays
// segment-aligned and the unsealed tail is never touched; `below` is
// clamped to the commit mark, so uncommitted data is never trimmed.
// Fetches under the new floor return OffsetOutOfRangeError. Returns the
// oldest retained offset after the trim. Callers own the policy — the
// Cluster trims below the low-watermark of persisted group offsets.
func (b *shardLog) Trim(topicName string, partitionIdx int, below int64) (int64, error) {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return 0, err
	}
	segSize := int64(b.cfg.SegmentSize)
	part.mu.Lock()
	defer part.mu.Unlock()
	if below > part.committed {
		below = part.committed
	}
	k := 0
	for k < len(part.segs) {
		segEnd := part.first + int64(k+1)*segSize
		if segEnd > below || int64(len(part.segs[k].msgs)) < segSize {
			break
		}
		k++
	}
	if k == 0 {
		return part.first, nil
	}
	part.trimmedCum = part.segs[k-1].cum[segSize-1]
	// Nil out the dropped heads before resliceing: the backing array
	// survives in segs, and a live pointer there would pin every trimmed
	// segment — exactly the memory the trim exists to release.
	for i := 0; i < k; i++ {
		part.segs[i] = nil
	}
	part.segs = part.segs[k:]
	part.first += int64(k) * segSize
	return part.first, nil
}

// OldestOffset returns a partition's retention floor: the oldest offset
// a fetch can still serve (zero until the first trim).
func (b *shardLog) OldestOffset(topicName string, partitionIdx int) (int64, error) {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return 0, err
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.first, nil
}

// ResidentBytes returns the payload bytes a partition currently holds in
// memory — everything appended minus everything trimmed. This is the
// quantity the retention contract bounds.
func (b *shardLog) ResidentBytes(topicName string, partitionIdx int) (int64, error) {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return 0, err
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.totalBytes - part.trimmedCum, nil
}

// EndOffset returns the next offset to be written on a partition.
func (b *shardLog) EndOffset(topicName string, partitionIdx int) (int64, error) {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return 0, err
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.end, nil
}

// Committed returns a partition's commit mark (the next uncommitted
// offset).
func (b *shardLog) Committed(topicName string, partitionIdx int) (int64, error) {
	part, err := b.partRef(topicName, partitionIdx)
	if err != nil {
		return 0, err
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	return part.committed, nil
}

// Close rejects further operations and wakes blocked fetchers and
// backpressured producers. Topics are swept in creation order so wake-up
// order never depends on map iteration.
func (b *shardLog) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, t := range b.order {
		for _, p := range t.partitions {
			p.mu.Lock()
			ws := p.waiters
			p.waiters = nil
			sp := p.space
			p.space = nil
			p.mu.Unlock()
			for _, w := range ws {
				w.Fire()
			}
			for _, w := range sp {
				w.Fire()
			}
		}
	}
}

func (b *shardLog) isClosed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}
