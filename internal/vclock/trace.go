package vclock

import "time"

// This file implements the schedule recorder: an optional, ring-buffered
// trace of every scheduling decision a Virtual executor makes — token
// grants, time advances, cancellation deliveries, compute-phase
// readmissions, plus application-level marks (e.g. planner binds). Because
// a same-seed run replays the exact same decision sequence, the recorder
// turns "this seed fails" into "decision #N is where two runs diverge":
// the chaos replay tool (cmd/chaosreplay) compares the running hash chain
// checkpoint-by-checkpoint, then re-records only the divergent window to
// pinpoint the first differing decision.
//
// The recorder is off by default and costs one nil-check per decision when
// off. When on, it keeps (a) a running 64-bit hash chain over all
// decisions, (b) a checkpoint of that hash every Stride decisions, (c) a
// ring buffer of the last Ring decisions, and (d) an exact capture of the
// decisions whose ordinal falls in [WindowFrom, WindowTo).

// TraceKind classifies one scheduling decision.
type TraceKind uint8

// Scheduling decision kinds.
const (
	// TraceGrant: the execution token was handed to a runnable participant.
	TraceGrant TraceKind = iota
	// TraceAdvance: modeled time advanced to a sleeper's deadline and the
	// sleeper was granted the token.
	TraceAdvance
	// TraceCancel: a canceled waiter was claimed by the cancellation sweep
	// and made runnable at the current instant.
	TraceCancel
	// TraceCompute: a finished parallel compute body was readmitted to the
	// run queue at the instant it left.
	TraceCompute
	// TraceMark: an application-level annotation (e.g. a planner bind)
	// recorded via Mark.
	TraceMark
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceGrant:
		return "grant"
	case TraceAdvance:
		return "advance"
	case TraceCancel:
		return "cancel"
	case TraceCompute:
		return "compute"
	case TraceMark:
		return "mark"
	default:
		return "unknown"
	}
}

// TraceEntry is one recorded scheduling decision.
type TraceEntry struct {
	// N is the 1-based decision ordinal.
	N uint64
	// Kind classifies the decision.
	Kind TraceKind
	// At is the modeled instant of the decision.
	At time.Time
	// Seq identifies the affected parker (its registration sequence number;
	// 0 for participants registered without one and for marks).
	Seq uint64
	// Note carries the annotation of a TraceMark ("" otherwise).
	Note string
}

// RecorderConfig configures StartRecorder.
type RecorderConfig struct {
	// Ring is the number of most-recent decisions kept verbatim
	// (default 256).
	Ring int
	// Stride is the checkpoint interval: the running hash is snapshotted
	// every Stride decisions (default 1024).
	Stride uint64
	// WindowFrom/WindowTo select an exact-capture window of decision
	// ordinals [WindowFrom, WindowTo); both zero disables the window.
	WindowFrom, WindowTo uint64
}

// RecorderState is a snapshot of the recorder, safe to retain.
type RecorderState struct {
	// Decisions is the total number of decisions recorded.
	Decisions uint64
	// Hash is the running hash chain over all decisions.
	Hash uint64
	// Stride is the checkpoint interval in effect.
	Stride uint64
	// Checkpoints holds the hash chain value after decision Stride, 2·Stride,
	// ... — the coarse comparison vector for bisection.
	Checkpoints []uint64
	// Ring holds the last len(Ring) decisions, oldest first.
	Ring []TraceEntry
	// Window holds the exact capture of [WindowFrom, WindowTo), if set.
	Window []TraceEntry
}

// recorder is the internal recorder state; all access is under Virtual.mu.
type recorder struct {
	cfg         RecorderConfig
	n           uint64
	hash        uint64
	checkpoints []uint64
	ring        []TraceEntry // ring buffer, len == cfg.Ring once warm
	ringStart   int          // index of the oldest entry
	window      []TraceEntry
}

// traceMix is the splitmix64 finalizer, used to chain decision hashes. It
// is self-contained so vclock stays dependency-free.
func traceMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// traceNoteHash hashes a mark note (FNV-1a).
func traceNoteHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// StartRecorder enables schedule recording on the executor. Call it before
// the workload starts so every run records the same decision ordinals;
// calling it again resets the recorder.
func (c *Virtual) StartRecorder(cfg RecorderConfig) {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1024
	}
	c.mu.Lock()
	c.rec = &recorder{cfg: cfg}
	c.mu.Unlock()
}

// StopRecorder disables recording (existing state is discarded).
func (c *Virtual) StopRecorder() {
	c.mu.Lock()
	c.rec = nil
	c.mu.Unlock()
}

// RecorderState snapshots the recorder; zero-valued when recording is off.
func (c *Virtual) RecorderState() RecorderState {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rec
	if r == nil {
		return RecorderState{}
	}
	out := RecorderState{
		Decisions:   r.n,
		Hash:        r.hash,
		Stride:      r.cfg.Stride,
		Checkpoints: append([]uint64(nil), r.checkpoints...),
		Window:      append([]TraceEntry(nil), r.window...),
	}
	out.Ring = make([]TraceEntry, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		out.Ring = append(out.Ring, r.ring[(r.ringStart+i)%len(r.ring)])
	}
	return out
}

// Recording reports whether the schedule recorder is on, so callers can
// skip building a Mark note that would be dropped.
func (c *Virtual) Recording() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec != nil
}

// Recording forwards to Virtual.Recording on c.
func Recording(c Clock) bool { return c.(*Virtual).Recording() }

// Mark records an application-level annotation as a scheduling decision.
// No-op when recording is off. The seq argument is free-form (chaos uses
// it for fault/bind ordinals).
func (c *Virtual) Mark(note string, seq uint64) {
	c.mu.Lock()
	c.recordLocked(TraceMark, seq, note)
	c.mu.Unlock()
}

// Mark forwards to Virtual.Mark on c, mirroring the Go/Compute
// package-helper pattern so callers holding a Clock need not assert it.
func Mark(c Clock, note string, seq uint64) { c.(*Virtual).Mark(note, seq) }

// recordLocked appends one decision to the recorder. Caller holds c.mu.
func (c *Virtual) recordLocked(kind TraceKind, seq uint64, note string) {
	r := c.rec
	if r == nil {
		return
	}
	r.n++
	e := TraceEntry{N: r.n, Kind: kind, At: c.now, Seq: seq, Note: note}
	h := traceMix(uint64(kind)<<56 ^ seq)
	h ^= traceMix(uint64(c.now.UnixNano()))
	if note != "" {
		h ^= traceNoteHash(note)
	}
	r.hash = traceMix(r.hash ^ h)
	if r.n%r.cfg.Stride == 0 {
		r.checkpoints = append(r.checkpoints, r.hash)
	}
	if len(r.ring) < r.cfg.Ring {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.ringStart] = e
		r.ringStart = (r.ringStart + 1) % len(r.ring)
	}
	if r.cfg.WindowTo > r.cfg.WindowFrom && r.n >= r.cfg.WindowFrom && r.n < r.cfg.WindowTo {
		r.window = append(r.window, e)
	}
}
