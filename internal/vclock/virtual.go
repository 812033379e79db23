package vclock

import (
	"context"
	"sync"
	"time"
)

// Virtual is a conservative virtual-time executor: a Clock whose modeled
// time advances to the earliest sleeper deadline whenever every registered
// goroutine is quiescent (blocked in Sleep or parked in a clock-aware
// primitive), so modeled sleeps cost zero wall time.
//
// The executor is cooperative and single-runner: at most one registered
// participant executes at a time, holding an implicit execution token.
// The token is released when the holder sleeps, parks (Notifier, Event,
// Group, Sem — see primitives.go) or exits, and is handed to the next
// runnable participant in FIFO order; when no participant is runnable,
// time jumps to the earliest sleeper's deadline and that sleeper runs.
// Ties on deadline wake in Sleep-call order. This serialization makes a
// same-seed run bit-reproducible: every Now() reads the same modeled
// instant in every run, and every scheduling decision happens in the same
// order.
//
// Context cancellation is delivered through the scheduler: every Sleep and
// primitive Wait registers its context, and before the executor advances
// modeled time (or declares the world stalled) it sweeps the wait lists
// and makes every waiter with a canceled context runnable at the *current*
// instant. A cancellation issued by a participant therefore takes effect
// at the modeled time it was issued — never after a spurious time jump —
// which keeps teardown paths (walltime kills, evictions, processor stops)
// deterministic. Cancellations arriving from outside the scheduled world
// (a wall-clock context timeout on a hung run) are picked up by the same
// sweep, raced only by their nature.
//
// Participation contract:
//
//   - Every goroutine that touches the clock (or state shared with clock
//     users) must be a participant: spawned via Go, or registered via
//     Adopt (the experiment driver does this) and deregistered via Leave.
//   - Participants must not block on bare channels/sync primitives fed by
//     other participants; they park through Sleep or the clock-aware
//     primitives instead. A bare block holds the token and stalls the
//     world (a real deadlock, surfaced by the caller's context timeout).
type Virtual struct {
	mu         sync.Mutex
	now        time.Time
	seq        uint64
	hasCurrent bool

	// runq is a head-indexed FIFO deque: pops advance runqHead instead of
	// re-slicing, so the backing array's capacity is reused across
	// grant/readmit cycles instead of being reallocated by every
	// append-after-pop. Empty means runqHead == len(runq).
	runq     []*parker
	runqHead int

	// sleepers is a binary min-heap keyed by (deadline, seq): the next
	// sleeper to wake is peeked in O(1) and popped in O(log n), and the
	// (deadline, Sleep-ordinal) key reproduces exactly the order the old
	// linear scan selected (ties on deadline wake in Sleep-call order;
	// both keys together are unique, so the order is total).
	sleepers sleepHeap

	// parked is an intrusive doubly-linked list of primitive waiters:
	// wake unlinks in O(1) where a slice would be scanned linearly. List
	// order is insertion order, but nothing depends on it — the
	// cancellation sweep re-sorts due waiters by seq.
	parkedHead, parkedTail *parker
	parkedLen              int

	participants int
	stalls       uint64

	// Parallel compute phase (compute.go). computing counts Compute bodies
	// currently executing off-token; computeDone holds finished bodies
	// awaiting deterministic readmission; computeSeq numbers Compute calls
	// in token order (the spawn ordinal that fixes the join order).
	computing   int
	computeSeq  uint64
	computeDone []*parker

	// rec, when non-nil, records every scheduling decision (trace.go).
	rec *recorder
}

// grant is a one-shot execution-token handoff channel (buffered so the
// granter never blocks).
type grant chan struct{}

// parker is one goroutine's registration in a wait list: the run queue, the
// sleeper heap (deadline set) or the parked list (waiting on a primitive).
// A parker is claimed exactly once — by its primitive's signal, by the
// scheduler's deadline wake, or by the cancellation sweep.
type parker struct {
	g        grant
	ctx      context.Context // nil: not cancelable
	deadline time.Time       // zero: not sleeping
	seq      uint64
	claimed  bool
	canceled bool

	// heapIdx is this parker's position in the sleeper heap (-1 when not
	// enrolled); the heap maintains it so the cancellation sweep can
	// remove an arbitrary sleeper in O(log n).
	heapIdx int

	// prev/next link the scheduler's intrusive parked list; onParked
	// distinguishes "not on the list" from "first/last element".
	prev, next *parker
	onParked   bool
}

// ---------------------------------------------------------------------------
// Sleeper heap
// ---------------------------------------------------------------------------

// sleepHeap is a binary min-heap of sleepers ordered by (deadline, seq).
// The key is unique per entry (seq is), so the pop order is a total order
// identical to the linear minimum scan it replaced — the heap changes the
// cost of a decision, never the decision (TestSleeperHeapMatchesLinearScan
// proves the equivalence property over randomized operation sequences).
type sleepHeap []*parker

// sleepBefore is the scheduling order: earlier deadline first, ties broken
// by Sleep-call order.
func sleepBefore(a, b *parker) bool {
	if a.deadline.Equal(b.deadline) {
		return a.seq < b.seq
	}
	return a.deadline.Before(b.deadline)
}

func (h sleepHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h sleepHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !sleepBefore(h[i], h[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h sleepHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && sleepBefore(h[r], h[l]) {
			m = r
		}
		if !sleepBefore(h[m], h[i]) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *sleepHeap) push(r *parker) {
	*h = append(*h, r)
	r.heapIdx = len(*h) - 1
	h.up(r.heapIdx)
}

// popMin removes and returns the sleeper with the smallest (deadline, seq).
func (h *sleepHeap) popMin() *parker {
	old := *h
	r := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[0].heapIdx = 0
	old[last] = nil
	*h = old[:last]
	if last > 0 {
		h.down(0)
	}
	r.heapIdx = -1
	return r
}

// removeIdx removes the sleeper at heap index i (the cancellation sweep's
// arbitrary-position removal).
func (h *sleepHeap) removeIdx(i int) {
	old := *h
	last := len(old) - 1
	r := old[i]
	if i != last {
		old[i] = old[last]
		old[i].heapIdx = i
	}
	old[last] = nil
	*h = old[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	r.heapIdx = -1
}

// NewVirtual creates a virtual-time executor starting at the given modeled
// time. The calling goroutine is NOT registered; call Adopt (or spawn all
// work via Go) before touching the clock.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (c *Virtual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since implements Clock.
func (c *Virtual) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep implements Clock: the calling participant parks until modeled time
// reaches now+d, which costs no wall time. Returns false if ctx was
// canceled first.
func (c *Virtual) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	c.mu.Lock()
	if !c.hasCurrent {
		c.mu.Unlock()
		panic("vclock: Sleep on Virtual clock from an unregistered goroutine (use Go or Adopt)")
	}
	c.seq++
	r := &parker{g: make(grant, 1), ctx: ctx, deadline: c.now.Add(d), seq: c.seq, heapIdx: -1}
	c.sleepers.push(r)
	c.hasCurrent = false
	c.scheduleLocked()
	c.mu.Unlock()
	return c.await(r)
}

// await blocks until r's grant arrives, nudging the scheduler if r's
// context fires first (external cancellations reach a stalled world this
// way; participant-issued ones are claimed by the scheduler's own sweep).
// It reports whether the wake-up was a signal (true) or a cancellation.
func (c *Virtual) await(r *parker) bool {
	if r.ctx == nil {
		<-r.g
	} else {
		select {
		case <-r.g:
		case <-r.ctx.Done():
			c.nudge()
			<-r.g
		}
	}
	// r.claimed was set before the grant was sent; the channel receive
	// orders the read of r.canceled after it.
	return !r.canceled
}

// Go spawns fn as a registered participant. It may be called from inside
// or outside the scheduled world; fn starts once the scheduler hands it
// the execution token.
func (c *Virtual) Go(fn func()) {
	r := &parker{g: make(grant, 1)}
	c.mu.Lock()
	c.participants++
	c.runq = append(c.runq, r)
	c.scheduleLocked()
	c.mu.Unlock()
	go func() {
		<-r.g
		defer c.exit()
		fn()
	}()
}

// Adopt registers the calling goroutine as a participant and blocks until
// it holds the execution token. Experiment drivers call this once, before
// interacting with any component on the clock, and pair it with Leave.
func (c *Virtual) Adopt() {
	r := &parker{g: make(grant, 1)}
	c.mu.Lock()
	c.participants++
	c.runq = append(c.runq, r)
	c.scheduleLocked()
	c.mu.Unlock()
	<-r.g
}

// Leave deregisters the calling participant (the inverse of Adopt) and
// releases the execution token.
func (c *Virtual) Leave() { c.exit() }

// Participants returns the number of registered participant goroutines.
func (c *Virtual) Participants() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.participants
}

// PendingSleepers reports how many participants are blocked in Sleep.
func (c *Virtual) PendingSleepers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sleepers)
}

// Stalls counts the times the scheduler found participants registered but
// nothing runnable and nothing sleeping — i.e. everyone parked waiting for
// an external signal. A rising count with no external waker in sight is a
// deadlock (see DESIGN.md, "Deadlock versus starvation").
func (c *Virtual) Stalls() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stalls
}

// exit removes the current participant from the world.
func (c *Virtual) exit() {
	c.mu.Lock()
	if !c.hasCurrent {
		c.mu.Unlock()
		panic("vclock: participant exit without holding the execution token")
	}
	c.participants--
	c.hasCurrent = false
	c.scheduleLocked()
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Primitive support (used by primitives.go)
// ---------------------------------------------------------------------------

// newParker allocates a wait registration for the current goroutine; the
// caller stores it in a primitive's waiter list, then calls park.
func (c *Virtual) newParker(ctx context.Context) *parker {
	c.mu.Lock()
	c.seq++
	r := &parker{g: make(grant, 1), ctx: ctx, seq: c.seq, heapIdx: -1}
	c.mu.Unlock()
	return r
}

// parkedPush appends r to the tail of the intrusive parked list. Caller
// holds c.mu.
func (c *Virtual) parkedPush(r *parker) {
	r.onParked = true
	r.prev = c.parkedTail
	r.next = nil
	if c.parkedTail != nil {
		c.parkedTail.next = r
	} else {
		c.parkedHead = r
	}
	c.parkedTail = r
	c.parkedLen++
}

// parkedRemove unlinks r from the parked list in O(1); a no-op when r is
// not on it. Caller holds c.mu.
func (c *Virtual) parkedRemove(r *parker) {
	if !r.onParked {
		return
	}
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		c.parkedHead = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		c.parkedTail = r.prev
	}
	r.prev, r.next = nil, nil
	r.onParked = false
	c.parkedLen--
}

// park releases the token on behalf of the current participant whose
// registration r is held by a primitive. The caller then awaits r.
func (c *Virtual) park(r *parker) {
	c.mu.Lock()
	if !c.hasCurrent {
		c.mu.Unlock()
		panic("vclock: wait on Virtual-clock primitive from an unregistered goroutine (use Go or Adopt)")
	}
	if !r.claimed {
		// A signal from outside the scheduled world may land between the
		// primitive registering r and this park; r is then already claimed
		// and queued runnable, and must not enter the parked list.
		c.parkedPush(r)
	}
	c.hasCurrent = false
	c.scheduleLocked()
	c.mu.Unlock()
}

// wake makes a parked waiter runnable after its primitive signaled it; the
// waker keeps running, so this never blocks. It reports whether the signal
// claimed the waiter (false: already canceled in the meantime).
func (c *Virtual) wake(r *parker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.claimed {
		return false
	}
	r.claimed = true
	c.parkedRemove(r)
	c.runq = append(c.runq, r)
	c.scheduleLocked()
	return true
}

// nudge asks the scheduler to re-run its cancellation sweep if the world
// is currently idle. Called from await when a context fires while its
// goroutine is parked: if a participant holds the token the next natural
// schedule pass will sweep (deterministically); if the world is stalled
// this recovers liveness.
func (c *Virtual) nudge() {
	c.mu.Lock()
	if !c.hasCurrent {
		c.scheduleLocked()
	}
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

// grantNextLocked pops the run queue's head and hands it the token.
// Caller holds c.mu and has checked the queue is non-empty.
func (c *Virtual) grantNextLocked() {
	r := c.runq[c.runqHead]
	c.runq[c.runqHead] = nil
	c.runqHead++
	if c.runqHead == len(c.runq) {
		c.runq = c.runq[:0]
		c.runqHead = 0
	}
	c.hasCurrent = true
	c.recordLocked(TraceGrant, r.seq, "")
	r.g <- struct{}{}
}

// scheduleLocked hands the execution token to the next runnable
// participant; with none runnable it readmits any completed compute phase,
// sweeps canceled waiters, then advances modeled time to the earliest
// sleeper. Caller holds c.mu.
func (c *Virtual) scheduleLocked() {
	if c.hasCurrent {
		return
	}
	if c.runqHead < len(c.runq) {
		// Fast path: a runnable successor takes the token without the
		// scheduler touching the sleeper heap or the parked list at all —
		// the compute-readmit juncture and the cancellation sweep only
		// ever happen on an empty run queue, exactly as before the heap
		// refactor, so hoisting the grant changes no decision.
		c.grantNextLocked()
		return
	}
	if c.computing > 0 || len(c.computeDone) > 0 {
		// An off-token compute phase is pending. Readmission may only
		// happen here — the run queue is empty, so this juncture is reached
		// at a schedule-determined point — and only once *every* in-flight
		// body has finished, so the admitted set never depends on real
		// completion order. Until then the world holds still: no grant, no
		// cancellation sweep, and above all no time advance — Compute
		// rejoins at the exact virtual instant it left.
		if c.computing > 0 {
			return // the last finishing body re-runs the scheduler
		}
		for i := 1; i < len(c.computeDone); i++ {
			for j := i; j > 0 && c.computeDone[j].seq < c.computeDone[j-1].seq; j-- {
				c.computeDone[j], c.computeDone[j-1] = c.computeDone[j-1], c.computeDone[j]
			}
		}
		for _, r := range c.computeDone {
			c.recordLocked(TraceCompute, r.seq, "")
		}
		c.runq = append(c.runq, c.computeDone...)
		c.computeDone = nil
		c.grantNextLocked()
		return
	}
	// Before letting time move (or stalling), deliver pending
	// cancellations at the current instant, in registration order.
	c.sweepCanceledLocked()
	if c.runqHead < len(c.runq) {
		c.grantNextLocked()
		return
	}
	if len(c.sleepers) > 0 {
		s := c.sleepers.popMin()
		if s.deadline.After(c.now) {
			c.now = s.deadline
		}
		s.claimed = true
		c.hasCurrent = true
		c.recordLocked(TraceAdvance, s.seq, "")
		s.g <- struct{}{}
		return
	}
	if c.participants > 0 {
		// Everyone is parked and no modeled work is pending: the world can
		// only resume on an external signal (Adopt, a primitive fired
		// from outside, or a context cancellation).
		c.stalls++
	}
}

// sweepCanceledLocked claims every sleeper and parked waiter whose context
// is already canceled, making them runnable (in seq order) at the current
// modeled time. The common no-cancellation case only reads: one ctx check
// per waiter, no restructuring. Caller holds c.mu.
func (c *Virtual) sweepCanceledLocked() {
	var due []*parker
	// Scan the heap's backing array directly — collection order is
	// irrelevant because due is sorted by seq below, and removal by heap
	// index keeps the heap invariant without a rebuild.
	for i := 0; i < len(c.sleepers); {
		r := c.sleepers[i]
		switch {
		case r.claimed:
			// Already woken through another path; never grant twice.
			c.sleepers.removeIdx(i)
			// The entry swapped into i is unexamined: do not advance.
		case r.ctx != nil && r.ctx.Err() != nil:
			due = append(due, r)
			c.sleepers.removeIdx(i)
		default:
			i++
		}
	}
	for r := c.parkedHead; r != nil; {
		next := r.next
		switch {
		case r.claimed:
			c.parkedRemove(r)
		case r.ctx != nil && r.ctx.Err() != nil:
			due = append(due, r)
			c.parkedRemove(r)
		}
		r = next
	}
	if len(due) == 0 {
		return
	}
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].seq < due[j-1].seq; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, r := range due {
		r.claimed = true
		r.canceled = true
		c.recordLocked(TraceCancel, r.seq, "")
		c.runq = append(c.runq, r)
	}
}

func removeParker(ws *[]*parker, r *parker) bool {
	for i, x := range *ws {
		if x == r {
			*ws = append((*ws)[:i], (*ws)[i+1:]...)
			return true
		}
	}
	return false
}

var _ Clock = (*Virtual)(nil)
