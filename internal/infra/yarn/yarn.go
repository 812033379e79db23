// Package yarn simulates a Hadoop-YARN-style cluster resource manager:
// applications negotiate containers (bundles of cores) from a resource
// manager with a small allocation latency, and release them when done.
// Pilot-Hadoop [67], [68] manages data-processing frameworks through
// exactly this interface; gopilot's MapReduce and in-memory engines run in
// containers granted here.
package yarn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/vclock"
)

// Config describes a simulated YARN cluster.
type Config struct {
	// Name is the cluster/site name.
	Name string
	// TotalCores is the cluster capacity.
	TotalCores int
	// AllocDelay samples container negotiation latency in seconds.
	AllocDelay dist.Dist
	// Clock supplies modeled time (required; a *vclock.Virtual).
	Clock vclock.Clock
	// Stream is the cluster's slot on the experiment's seeding spine.
	// When AllocDelay is nil and Stream is set, the canonical stochastic
	// negotiation model (lognormal, mean 1 s, cv 0.3) is derived from its
	// "alloc-delay" child; with neither, a constant 0.1 s is charged.
	// Defaults to dist.Unseeded("infra/yarn/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Name == "" {
		out.Name = "yarn"
	}
	if out.TotalCores <= 0 {
		out.TotalCores = 64
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/yarn/" + out.Name)
	}
	if out.AllocDelay == nil {
		if hasStream {
			out.AllocDelay = dist.LogNormalFrom(out.Stream.Named("alloc-delay"), 1, 0.3)
		} else {
			out.AllocDelay = dist.Constant(0.1)
		}
	}
	return out
}

// Container is a granted resource bundle.
type Container struct {
	id      string
	cores   int
	granted time.Time

	mu       sync.Mutex
	released bool
}

// ID returns the container id.
func (c *Container) ID() string { return c.id }

// Cores returns the container's core count.
func (c *Container) Cores() int { return c.cores }

// Cluster is a simulated YARN resource manager.
type Cluster struct {
	cfg    Config
	faults infra.Faults

	mu        sync.Mutex
	freeCores int
	nextID    int
	closed    bool
	waiters   []*vclock.Event
}

// ErrClosed is returned after Shutdown; it wraps infra.ErrBackendClosed
// so heterogeneous dispatchers need only one test.
var ErrClosed = fmt.Errorf("yarn: cluster closed: %w", infra.ErrBackendClosed)

// ErrTooLarge is returned when a request exceeds cluster capacity.
var ErrTooLarge = errors.New("yarn: request exceeds cluster capacity")

// New creates a cluster.
func New(cfg Config) *Cluster {
	c := &Cluster{cfg: cfg.withDefaults()}
	c.freeCores = c.cfg.TotalCores
	return c
}

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.cfg.Name }

// Site returns the cluster's site identity.
func (c *Cluster) Site() infra.Site { return infra.Site(c.cfg.Name) }

// TotalCores returns the cluster capacity.
func (c *Cluster) TotalCores() int { return c.cfg.TotalCores }

// Faults returns the cluster's fault switchboard (chaos engineering).
func (c *Cluster) Faults() *infra.Faults { return &c.faults }

// FreeCores returns the currently unallocated cores.
func (c *Cluster) FreeCores() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeCores
}

// RequestContainers negotiates n containers of coresEach cores, blocking
// until capacity is available (containers released by other applications)
// or ctx is canceled. Containers are granted all-or-nothing.
func (c *Cluster) RequestContainers(ctx context.Context, n, coresEach int) ([]*Container, error) {
	if n <= 0 || coresEach <= 0 {
		return nil, errors.New("yarn: container request must be positive")
	}
	if err := c.faults.Check(); err != nil {
		return nil, fmt.Errorf("yarn: %s: %w", c.cfg.Name, err)
	}
	want := n * coresEach
	if want > c.cfg.TotalCores {
		return nil, fmt.Errorf("%w: want %d total %d", ErrTooLarge, want, c.cfg.TotalCores)
	}
	// Negotiation latency.
	delay := time.Duration(c.cfg.AllocDelay.Sample() * float64(time.Second))
	if !c.cfg.Clock.Sleep(ctx, delay) {
		return nil, ctx.Err()
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.freeCores >= want {
			c.freeCores -= want
			out := make([]*Container, n)
			now := c.cfg.Clock.Now()
			for i := range out {
				c.nextID++
				out[i] = &Container{
					id:      fmt.Sprintf("%s.c%d", c.cfg.Name, c.nextID),
					cores:   coresEach,
					granted: now,
				}
			}
			c.mu.Unlock()
			return out, nil
		}
		ev := vclock.NewEvent(c.cfg.Clock)
		c.waiters = append(c.waiters, ev)
		c.mu.Unlock()
		if !ev.Wait(ctx) {
			return nil, ctx.Err()
		}
	}
}

// Release returns containers to the cluster.
func (c *Cluster) Release(containers []*Container) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ct := range containers {
		ct.mu.Lock()
		if !ct.released {
			ct.released = true
			c.freeCores += ct.cores
		}
		ct.mu.Unlock()
	}
	for _, ev := range c.waiters {
		ev.Fire()
	}
	c.waiters = nil
}

// Allocation builds an infra.Allocation spanning a container set.
func (c *Cluster) Allocation(id string, containers []*Container) infra.Allocation {
	cores := 0
	nodes := make([]string, len(containers))
	for i, ct := range containers {
		cores += ct.cores
		nodes[i] = ct.id
	}
	return infra.Allocation{
		ID:      id,
		Site:    c.Site(),
		Cores:   cores,
		Nodes:   nodes,
		Granted: c.cfg.Clock.Now(),
	}
}

// Shutdown closes the cluster; outstanding waiters fail.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, ev := range c.waiters {
		ev.Fire()
	}
	c.waiters = nil
}
