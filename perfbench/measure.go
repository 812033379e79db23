package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime metric names read around each measured phase.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mCPUGC        = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal     = "/cpu/classes/total:cpu-seconds"
	mCPUIdle      = "/cpu/classes/idle:cpu-seconds"
	mHeapLive     = "/gc/heap/live:bytes"
)

// snapshot is the process's resource counters at one instant.
type snapshot struct {
	wall       time.Time
	cpu        time.Duration // user+sys CPU of the whole process
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	busyCPU    float64 // seconds of CPU the Go runtime did not spend idle
}

func takeSnapshot() snapshot {
	s := []metrics.Sample{
		{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCycles},
		{Name: mCPUGC}, {Name: mCPUTotal}, {Name: mCPUIdle},
	}
	metrics.Read(s)
	return snapshot{
		wall:       time.Now(),
		cpu:        processCPU(),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		busyCPU:    s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

// processCPU returns the user+sys CPU time consumed by the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap reads the live heap as of the last completed GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes reads the cumulative heap bytes allocated.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// progressPoints is the number of evenly spaced points, by verified
// items, at which a run samples the live heap (and, when traced, the
// executor and queue gauges).
const progressPoints = 64

// probe counts a run's verified items and samples gauges at fixed
// progress points. Workloads call add from whatever goroutine completes
// an item, including parallel compute phases, so it is lock-free on the
// common path.
type probe struct {
	every int64
	done  atomic.Int64
	next  atomic.Int64

	mu       sync.Mutex
	heapPeak uint64
	gauge    func() // optional extra sampling at each point (traced runs)
}

func newProbe(items int) *probe {
	p := &probe{every: int64(items) / progressPoints}
	if p.every < 1 {
		p.every = 1
	}
	p.next.Store(p.every)
	return p
}

// add records n completed items, sampling at every progress point the
// count crosses.
func (p *probe) add(n int64) {
	d := p.done.Add(n)
	for {
		nx := p.next.Load()
		if d < nx {
			return
		}
		if p.next.CompareAndSwap(nx, nx+p.every) {
			p.point()
		}
	}
}

func (p *probe) point() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h := liveHeap(); h > p.heapPeak {
		p.heapPeak = h
	}
	if p.gauge != nil {
		p.gauge()
	}
}

// peak returns the highest live heap sampled so far.
func (p *probe) peak() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heapPeak
}

// maxGauge keeps the highest value observed.
type maxGauge struct{ v atomic.Int64 }

func (g *maxGauge) observe(x int64) {
	for {
		cur := g.v.Load()
		if x <= cur || g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

func (g *maxGauge) load() int64 { return g.v.Load() }

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// fingerprint hashes a run's modeled outputs (FNV-1a over a fixed binary
// encoding). Same seed, same program: same fingerprint.
type fingerprint uint64

func newFingerprint() fingerprint { return 14695981039346656037 }

func (f *fingerprint) u64(x uint64) {
	h := uint64(*f)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	*f = fingerprint(h)
}

func (f *fingerprint) i64(x int64)         { f.u64(uint64(x)) }
func (f *fingerprint) f64(x float64)       { f.u64(math.Float64bits(x)) }
func (f *fingerprint) at(t time.Time)      { f.i64(t.UnixNano()) }
func (f *fingerprint) dur(d time.Duration) { f.i64(int64(d)) }

func (f *fingerprint) str(s string) {
	f.i64(int64(len(s)))
	h := uint64(*f)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	*f = fingerprint(h)
}
