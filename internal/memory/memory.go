// Package memory implements Pilot-Memory [68]: an in-memory store
// co-located with pilot resources so iterative applications (the paper's
// Table I "Iterative" scenario — model training, K-Means) can cache their
// working set between generations of tasks instead of re-reading it from
// storage every pass.
//
// The cache models memory bandwidth (Get/Put cost size/bandwidth in
// virtual time) and bounded capacity with LRU eviction, which is what
// makes the memory-vs-disk per-iteration comparison of experiment E6
// meaningful.
package memory

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gopilot/internal/vclock"
)

// Config configures a Cache.
type Config struct {
	// Name labels the cache (usually the pilot or site name).
	Name string
	// CapacityBytes bounds resident (logical) bytes; zero means 4 GiB.
	CapacityBytes int64
	// Bandwidth is the modeled memory bandwidth in bytes per second;
	// zero means 10 GB/s.
	Bandwidth float64
	// Clock supplies modeled time (required; a *vclock.Virtual).
	Clock vclock.Clock
}

// Stats describes cache effectiveness.
type Stats struct {
	Hits        int
	Misses      int
	Evictions   int
	BytesServed int64
	Resident    int64
}

type entry struct {
	key   string
	value any
	size  int64
}

// Cache is a bounded, LRU-evicting, bandwidth-modeled in-memory store.
// It is safe for concurrent use.
type Cache struct {
	cfg Config

	mu       sync.Mutex
	items    map[string]*list.Element
	order    *list.List // front = most recently used
	resident int64
	stats    Stats
}

// ErrTooLarge is returned when a value exceeds the cache capacity.
var ErrTooLarge = errors.New("memory: value larger than cache capacity")

// NewCache creates a cache.
func NewCache(cfg Config) *Cache {
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 4 << 30
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 10e9
	}
	return &Cache{
		cfg:   cfg,
		items: make(map[string]*list.Element),
		order: list.New(),
	}
}

// Name returns the cache label.
func (c *Cache) Name() string { return c.cfg.Name }

// Capacity returns the configured capacity in bytes.
func (c *Cache) Capacity() int64 { return c.cfg.CapacityBytes }

func (c *Cache) cost(size int64) time.Duration {
	return time.Duration(float64(size) / c.cfg.Bandwidth * float64(time.Second))
}

// Put stores a value under key with the given logical size, evicting LRU
// entries as needed. It pays the modeled memory write cost.
func (c *Cache) Put(ctx context.Context, key string, value any, size int64) error {
	if size < 0 {
		return fmt.Errorf("memory: negative size for %q", key)
	}
	if size > c.cfg.CapacityBytes {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, c.cfg.CapacityBytes)
	}
	if !c.cfg.Clock.Sleep(ctx, c.cost(size)) {
		return ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*entry)
		c.resident -= old.size
		old.value, old.size = value, size
		c.resident += size
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&entry{key: key, value: value, size: size})
		c.items[key] = el
		c.resident += size
	}
	c.evictLocked()
	return nil
}

// evictLocked drops LRU entries until resident <= capacity.
func (c *Cache) evictLocked() {
	for c.resident > c.cfg.CapacityBytes {
		back := c.order.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		c.order.Remove(back)
		delete(c.items, e.key)
		c.resident -= e.size
		c.stats.Evictions++
	}
}

// Get returns the cached value, paying the modeled memory read cost on a
// hit. The second result reports presence.
func (c *Cache) Get(ctx context.Context, key string) (any, bool, error) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false, nil
	}
	e := el.Value.(*entry)
	c.order.MoveToFront(el)
	c.stats.Hits++
	c.stats.BytesServed += e.size
	value, size := e.value, e.size
	c.mu.Unlock()

	if !c.cfg.Clock.Sleep(ctx, c.cost(size)) {
		return nil, false, ctx.Err()
	}
	return value, true, nil
}

// GetOrLoad returns the cached value or, on a miss, invokes load (which
// typically reads through Pilot-Data, paying storage/transfer costs),
// caches the result and returns it. Concurrent loads of the same key are
// not deduplicated: like the real system, each task pays its own miss.
func (c *Cache) GetOrLoad(ctx context.Context, key string, size int64, load func(ctx context.Context) (any, error)) (any, error) {
	v, ok, err := c.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	if ok {
		return v, nil
	}
	v, err = load(ctx)
	if err != nil {
		return nil, err
	}
	if err := c.Put(ctx, key, v, size); err != nil {
		// Value too large to cache is not a load failure: serve it anyway.
		if errors.Is(err, ErrTooLarge) {
			return v, nil
		}
		return nil, err
	}
	return v, nil
}

// Delete removes a key (no-op when absent).
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.order.Remove(el)
		delete(c.items, key)
		c.resident -= e.size
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Resident returns the resident logical bytes.
func (c *Cache) Resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = c.resident
	return s
}

// HitRate returns hits / (hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	s := c.Stats()
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
