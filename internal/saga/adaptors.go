package saga

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"gopilot/internal/infra"
	"gopilot/internal/infra/cloud"
	"gopilot/internal/infra/hpc"
	"gopilot/internal/infra/htc"
	"gopilot/internal/infra/yarn"
	"gopilot/internal/vclock"
)

// ---------------------------------------------------------------------------
// Local (fork) adaptor
// ---------------------------------------------------------------------------

// LocalService runs jobs immediately in-process — the SAGA "fork" adaptor.
// It is the zero-latency reference backend used in unit tests and as the
// lower bound in overhead experiments.
type LocalService struct {
	name   string
	cores  int
	clock  vclock.Clock
	faults infra.Faults

	mu     sync.Mutex
	nextID int
	closed bool
	wg     *vclock.Group
}

// NewLocalService creates a local service with the given core capacity
// (capacity is advisory; local jobs are never queued).
func NewLocalService(name string, cores int, clock vclock.Clock) *LocalService {
	if name == "" {
		name = "localhost"
	}
	if cores <= 0 {
		cores = 8
	}
	return &LocalService{name: name, cores: cores, clock: clock, wg: vclock.NewGroup(clock)}
}

// URL implements Service.
func (s *LocalService) URL() string { return "local://" + s.name }

// Site implements Service.
func (s *LocalService) Site() infra.Site { return infra.Site(s.name) }

// TotalCores implements Service.
func (s *LocalService) TotalCores() int { return s.cores }

// Faults returns the service's fault switchboard (chaos engineering). The
// local backend has no simulator underneath, so it owns its own.
func (s *LocalService) Faults() *infra.Faults { return &s.faults }

// Submit implements Service.
func (s *LocalService) Submit(d Description) (Job, error) {
	if d.Payload == nil {
		return nil, errors.New("saga: description has nil payload")
	}
	if err := s.faults.Check(); err != nil {
		return nil, fmt.Errorf("saga: %s: %w", s.URL(), err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("saga: service %s closed", s.URL())
	}
	s.nextID++
	id := fmt.Sprintf("local.%s.%d", s.name, s.nextID)
	s.mu.Unlock()

	now := s.clock.Now()
	j := newBaseJob(id, now, s.clock)
	ctx, cancel := context.WithCancel(context.Background())
	j.setCancel(cancel)

	cores := d.TotalCores
	if cores <= 0 {
		cores = 1
	}
	alloc := infra.Allocation{
		ID:      id,
		Site:    s.Site(),
		Cores:   cores,
		Nodes:   []string{s.name},
		Granted: now,
	}
	s.wg.Add(1)
	vclock.Go(s.clock, func() {
		defer s.wg.Done()
		defer cancel()
		j.markRunning(s.clock.Now())
		if d.Walltime > 0 {
			defer armWalltime(s.clock, ctx, d.Walltime, cancel, s.wg)()
		}
		err := d.Payload(ctx, alloc)
		j.finishPayload(ctx.Err(), err, s.clock.Now())
	})
	return j, nil
}

// Close implements Service.
func (s *LocalService) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// HPC adaptor
// ---------------------------------------------------------------------------

// HPCService adapts a simulated batch cluster to the SAGA interface.
// TotalCores are rounded up to whole nodes, as real batch systems do.
type HPCService struct {
	cluster *hpc.Cluster
	clock   vclock.Clock
}

// NewHPCService wraps an hpc.Cluster.
func NewHPCService(c *hpc.Cluster, clock vclock.Clock) *HPCService {
	return &HPCService{cluster: c, clock: clock}
}

// URL implements Service.
func (s *HPCService) URL() string { return "hpc://" + s.cluster.Name() }

// Site implements Service.
func (s *HPCService) Site() infra.Site { return s.cluster.Site() }

// TotalCores implements Service.
func (s *HPCService) TotalCores() int { return s.cluster.TotalCores() }

// Cluster exposes the underlying simulator for experiment inspection.
func (s *HPCService) Cluster() *hpc.Cluster { return s.cluster }

// Faults returns the backend's fault switchboard (chaos engineering).
func (s *HPCService) Faults() *infra.Faults { return s.cluster.Faults() }

// Submit implements Service.
func (s *HPCService) Submit(d Description) (Job, error) {
	if d.Payload == nil {
		return nil, errors.New("saga: description has nil payload")
	}
	cores := d.TotalCores
	if cores <= 0 {
		cores = 1
	}
	cpn := s.cluster.CoresPerNode()
	nodes := (cores + cpn - 1) / cpn

	now := s.clock.Now()
	j := newBaseJob("", now, s.clock)

	bj, err := s.cluster.Submit(hpc.JobSpec{
		Name:     d.Name,
		Nodes:    nodes,
		Walltime: d.Walltime,
		Payload: func(ctx context.Context, alloc infra.Allocation) error {
			j.markRunning(s.clock.Now())
			return d.Payload(ctx, alloc)
		},
	})
	if err != nil {
		return nil, err
	}
	j.id = bj.ID()
	j.setCancel(func() { s.cluster.Cancel(bj) })
	vclock.Go(s.clock, func() {
		bj.Wait(context.Background())
		end := s.clock.Now()
		switch bj.State() {
		case hpc.Completed:
			j.finish(Done, nil, end)
		case hpc.TimedOut:
			j.finish(Failed, fmt.Errorf("saga: job %s hit walltime: %w", bj.ID(), bj.Err()), end)
		case hpc.Canceled:
			j.finish(Canceled, bj.Err(), end)
		default:
			j.finish(Failed, bj.Err(), end)
		}
	})
	return j, nil
}

// Close implements Service.
func (s *HPCService) Close() error { return nil }

// ---------------------------------------------------------------------------
// HTC adaptor (glidein-style multi-slot coalescence)
// ---------------------------------------------------------------------------

// HTCService adapts a simulated HTC pool. A job requesting k cores is
// realized as k single-slot "glidein" jobs; the payload starts once all
// slots have been matched (condor-glidein-style coalescence) and is
// canceled if a member slot is evicted without retry budget.
type HTCService struct {
	pool  *htc.Pool
	clock vclock.Clock

	mu     sync.Mutex
	nextID int
}

// NewHTCService wraps an htc.Pool.
func NewHTCService(p *htc.Pool, clock vclock.Clock) *HTCService {
	return &HTCService{pool: p, clock: clock}
}

// URL implements Service.
func (s *HTCService) URL() string { return "htc://" + s.pool.Name() }

// Site implements Service.
func (s *HTCService) Site() infra.Site { return s.pool.Site() }

// TotalCores implements Service.
func (s *HTCService) TotalCores() int { return s.pool.Slots() }

// Pool exposes the underlying simulator.
func (s *HTCService) Pool() *htc.Pool { return s.pool }

// Faults returns the backend's fault switchboard (chaos engineering).
func (s *HTCService) Faults() *infra.Faults { return s.pool.Faults() }

// Submit implements Service.
func (s *HTCService) Submit(d Description) (Job, error) {
	if d.Payload == nil {
		return nil, errors.New("saga: description has nil payload")
	}
	slots := d.TotalCores
	if slots <= 0 {
		slots = 1
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("htc.%s.%d", s.pool.Name(), s.nextID)
	s.mu.Unlock()

	now := s.clock.Now()
	j := newBaseJob(id, now, s.clock)
	ctx, cancel := context.WithCancel(context.Background())
	j.setCancel(cancel)

	// Shared coalescence state: glidein payloads record arrivals and losses
	// here and nudge the coalescer through the notifier; the release event
	// lets them surrender their slots once the aggregate payload ends.
	st := &glideinSet{
		changed: vclock.NewNotifier(s.clock),
		release: vclock.NewEvent(s.clock),
	}
	glideins := make([]*htc.Job, 0, slots)
	for i := 0; i < slots; i++ {
		gj, err := s.pool.Submit(htc.JobSpec{
			Name:    fmt.Sprintf("%s.glidein%d", d.Name, i),
			Runtime: d.Walltime,
			Payload: func(gctx context.Context, alloc infra.Allocation) error {
				st.mu.Lock()
				st.nodes = append(st.nodes, alloc.Nodes[0])
				st.mu.Unlock()
				st.changed.Set()
				// Hold the slot until the aggregate payload completes.
				if st.release.Wait(gctx) {
					return nil
				}
				st.mu.Lock()
				if st.lost == nil {
					st.lost = gctx.Err()
				}
				pcancel := st.pcancel
				st.mu.Unlock()
				st.changed.Set()
				if pcancel != nil {
					// Mid-run eviction: tear down the aggregate payload.
					pcancel()
				}
				return gctx.Err()
			},
		})
		if err != nil {
			cancel()
			st.release.Fire()
			for _, g := range glideins {
				s.pool.Cancel(g)
			}
			return nil, err
		}
		glideins = append(glideins, gj)
	}

	vclock.Go(s.clock, func() {
		defer cancel()
		for {
			st.mu.Lock()
			arrived, lost := len(st.nodes), st.lost
			st.mu.Unlock()
			if lost != nil {
				// A glidein died before coalescence with no retry left.
				st.release.Fire()
				j.finish(Failed, fmt.Errorf("saga: glidein lost before start: %w", lost), s.clock.Now())
				return
			}
			if arrived >= slots {
				break
			}
			if !st.changed.Wait(ctx) {
				st.release.Fire()
				j.finish(Canceled, ctx.Err(), s.clock.Now())
				return
			}
		}
		start := s.clock.Now()
		j.markRunning(start)
		st.mu.Lock()
		nodes := append([]string(nil), st.nodes[:slots]...)
		pctx, pcancel := context.WithCancel(ctx)
		st.pcancel = pcancel
		// An eviction may have landed after coalescence but before pcancel
		// was published; the glidein saw nil then, so tear down here.
		evictedEarly := st.lost
		st.mu.Unlock()
		if evictedEarly != nil {
			pcancel()
		}
		alloc := infra.Allocation{
			ID:      id,
			Site:    s.Site(),
			Cores:   slots,
			Nodes:   nodes,
			Granted: start,
		}
		err := d.Payload(pctx, alloc)
		pcancel()
		st.release.Fire()
		st.mu.Lock()
		evictErr := st.lost
		st.mu.Unlock()
		end := s.clock.Now()
		if evictErr != nil {
			j.finish(Failed, fmt.Errorf("saga: slot evicted mid-run: %w", evictErr), end)
			return
		}
		j.finishPayload(ctx.Err(), err, end)
	})
	return j, nil
}

// glideinSet is the coalescence scratchpad shared between an HTC job's
// glidein payloads and its coalescer goroutine.
type glideinSet struct {
	changed *vclock.Notifier
	release *vclock.Event

	mu      sync.Mutex
	nodes   []string
	lost    error
	pcancel context.CancelFunc
}

// Close implements Service.
func (s *HTCService) Close() error { return nil }

// ---------------------------------------------------------------------------
// Cloud adaptor
// ---------------------------------------------------------------------------

// CloudService adapts a simulated IaaS provider: a job provisions enough
// VMs to cover TotalCores, runs, and terminates them.
type CloudService struct {
	provider *cloud.Provider
	clock    vclock.Clock

	mu     sync.Mutex
	nextID int
}

// NewCloudService wraps a cloud.Provider.
func NewCloudService(p *cloud.Provider, clock vclock.Clock) *CloudService {
	return &CloudService{provider: p, clock: clock}
}

// URL implements Service.
func (s *CloudService) URL() string { return "cloud://" + s.provider.Name() }

// Site implements Service.
func (s *CloudService) Site() infra.Site { return s.provider.Site() }

// TotalCores implements Service (0: clouds are elastically unbounded).
func (s *CloudService) TotalCores() int { return 0 }

// Provider exposes the underlying simulator.
func (s *CloudService) Provider() *cloud.Provider { return s.provider }

// Faults returns the backend's fault switchboard (chaos engineering).
func (s *CloudService) Faults() *infra.Faults { return s.provider.Faults() }

// Submit implements Service. The attribute "vm_type" selects the instance
// type.
func (s *CloudService) Submit(d Description) (Job, error) {
	if d.Payload == nil {
		return nil, errors.New("saga: description has nil payload")
	}
	cores := d.TotalCores
	if cores <= 0 {
		cores = 1
	}
	vt := s.provider.DefaultType()
	if name := d.Attributes["vm_type"]; name != "" {
		var err error
		if vt, err = s.provider.TypeByName(name); err != nil {
			return nil, err
		}
	}
	n := (cores + vt.Cores - 1) / vt.Cores

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("cloud.%s.%d", s.provider.Name(), s.nextID)
	s.mu.Unlock()

	now := s.clock.Now()
	j := newBaseJob(id, now, s.clock)
	ctx, cancel := context.WithCancel(context.Background())
	j.setCancel(cancel)

	vclock.Go(s.clock, func() {
		defer cancel()
		vms, err := s.provider.Provision(ctx, n, vt.Name)
		if err != nil {
			j.finish(Failed, fmt.Errorf("saga: provisioning failed: %w", err), s.clock.Now())
			return
		}
		defer s.provider.Terminate(vms)
		start := s.clock.Now()
		j.markRunning(start)
		if d.Walltime > 0 {
			defer armWalltime(s.clock, ctx, d.Walltime, cancel, nil)()
		}
		err = d.Payload(ctx, s.provider.Allocation(id, vms))
		j.finishPayload(ctx.Err(), err, s.clock.Now())
	})
	return j, nil
}

// Close implements Service.
func (s *CloudService) Close() error { return nil }

// ---------------------------------------------------------------------------
// YARN adaptor
// ---------------------------------------------------------------------------

// YarnService adapts a simulated YARN cluster: a job negotiates containers
// covering TotalCores and releases them afterwards.
type YarnService struct {
	cluster     *yarn.Cluster
	clock       vclock.Clock
	coresPerCtr int

	mu     sync.Mutex
	nextID int
}

// NewYarnService wraps a yarn.Cluster. coresPerContainer controls container
// granularity (default 4).
func NewYarnService(c *yarn.Cluster, coresPerContainer int, clock vclock.Clock) *YarnService {
	if coresPerContainer <= 0 {
		coresPerContainer = 4
	}
	return &YarnService{cluster: c, clock: clock, coresPerCtr: coresPerContainer}
}

// URL implements Service.
func (s *YarnService) URL() string { return "yarn://" + s.cluster.Name() }

// Site implements Service.
func (s *YarnService) Site() infra.Site { return s.cluster.Site() }

// TotalCores implements Service.
func (s *YarnService) TotalCores() int { return s.cluster.TotalCores() }

// Cluster exposes the underlying simulator.
func (s *YarnService) Cluster() *yarn.Cluster { return s.cluster }

// Faults returns the backend's fault switchboard (chaos engineering).
func (s *YarnService) Faults() *infra.Faults { return s.cluster.Faults() }

// Submit implements Service.
func (s *YarnService) Submit(d Description) (Job, error) {
	if d.Payload == nil {
		return nil, errors.New("saga: description has nil payload")
	}
	cores := d.TotalCores
	if cores <= 0 {
		cores = 1
	}
	per := s.coresPerCtr
	if cores < per {
		per = cores
	}
	n := (cores + per - 1) / per

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("yarn.%s.%d", s.cluster.Name(), s.nextID)
	s.mu.Unlock()

	now := s.clock.Now()
	j := newBaseJob(id, now, s.clock)
	ctx, cancel := context.WithCancel(context.Background())
	j.setCancel(cancel)

	vclock.Go(s.clock, func() {
		defer cancel()
		containers, err := s.cluster.RequestContainers(ctx, n, per)
		if err != nil {
			j.finish(Failed, fmt.Errorf("saga: container negotiation failed: %w", err), s.clock.Now())
			return
		}
		defer s.cluster.Release(containers)
		start := s.clock.Now()
		j.markRunning(start)
		err = d.Payload(ctx, s.cluster.Allocation(id, containers))
		j.finishPayload(ctx.Err(), err, s.clock.Now())
	})
	return j, nil
}

// Close implements Service.
func (s *YarnService) Close() error { return nil }

var (
	_ Service = (*LocalService)(nil)
	_ Service = (*HPCService)(nil)
	_ Service = (*HTCService)(nil)
	_ Service = (*CloudService)(nil)
	_ Service = (*YarnService)(nil)
)

// Registry resolves resource URLs ("hpc://stampede") to services, letting
// pilot descriptions name resources symbolically, as the Pilot-API does.
type Registry struct {
	mu       sync.Mutex
	services map[string]Service
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{services: make(map[string]Service)} }

// Register adds a service under its URL.
func (r *Registry) Register(s Service) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.services[s.URL()] = s
}

// Lookup resolves a URL.
func (r *Registry) Lookup(url string) (Service, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.services[url]
	if !ok {
		return nil, fmt.Errorf("saga: no service registered for %q", url)
	}
	return s, nil
}

// URLs lists registered service URLs.
func (r *Registry) URLs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.services))
	for u := range r.services {
		out = append(out, u)
	}
	return out
}

// CloseAll closes every registered service.
func (r *Registry) CloseAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.services {
		s.Close()
	}
}
