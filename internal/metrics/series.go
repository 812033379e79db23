package metrics

import (
	"sort"
	"sync"
)

// Series is an append-only, concurrency-safe collection of float64 samples
// with on-demand summarization. It backs most experiment measurements.
type Series struct {
	mu   sync.Mutex
	name string
	xs   []float64
}

// NewSeries creates a named sample series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Add appends a sample.
func (s *Series) Add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

// AddFunc appends n samples produced by gen(0..n-1), writing them
// directly into the series' tail under one lock acquisition — the
// zero-staging bulk path: callers compute each sample on the fly instead
// of materializing a scratch slice first.
func (s *Series) AddFunc(n int, gen func(int) float64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.growLocked(n)
	dst := s.xs[len(s.xs) : len(s.xs)+n]
	for i := range dst {
		dst[i] = gen(i)
	}
	s.xs = s.xs[:len(s.xs)+n]
	s.mu.Unlock()
}

// growLocked ensures capacity for n more samples, doubling on growth
// (instead of the runtime's shallower large-slice growth) so a
// million-sample series costs a handful of reallocations rather than
// dozens. Caller holds s.mu.
func (s *Series) growLocked(n int) {
	need := len(s.xs) + n
	if need <= cap(s.xs) {
		return
	}
	newCap := 2 * cap(s.xs)
	if newCap < need {
		newCap = need
	}
	grown := make([]float64, len(s.xs), newCap)
	copy(grown, s.xs)
	s.xs = grown
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// Values returns a copy of the samples.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// Summary summarizes the samples collected so far. The snapshot taken
// under the lock is sorted and summarized in place — one copy of the
// sample set total, which matters at a million samples.
func (s *Series) Summary() Summary {
	xs := s.Values()
	sort.Float64s(xs)
	return summarizeSorted(xs)
}
