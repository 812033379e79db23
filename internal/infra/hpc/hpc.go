// Package hpc simulates a production HPC machine fronted by a batch queue —
// the infrastructure class the pilot-abstraction was born on (BigJob [63]).
//
// The simulator reproduces the behaviours that matter to pilot systems:
//
//   - exogenous queue wait (competing users) sampled from a configurable
//     distribution, on top of emergent capacity wait;
//   - FCFS scheduling with optional EASY backfill;
//   - whole-node allocation and walltime enforcement (jobs are killed when
//     their requested walltime expires);
//   - dispatch overhead for the local resource management system.
//
// All delays are modeled in virtual time through vclock.Clock, so an
// experiment with hour-long queue waits runs in milliseconds.
package hpc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/metrics"
	"gopilot/internal/vclock"
)

// State is the lifecycle state of a batch job.
type State int

// Batch job states, following the usual LRMS lifecycle.
const (
	Pending State = iota
	Running
	Completed
	Failed
	TimedOut
	Canceled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "Pending"
	case Running:
		return "Running"
	case Completed:
		return "Completed"
	case Failed:
		return "Failed"
	case TimedOut:
		return "TimedOut"
	case Canceled:
		return "Canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config describes a simulated HPC machine.
type Config struct {
	// Name is the site name (also the infra.Site of allocations).
	Name string
	// Nodes is the machine size in nodes.
	Nodes int
	// CoresPerNode is the homogeneous per-node core count.
	CoresPerNode int
	// QueueWait samples the exogenous queue delay, in seconds, a job incurs
	// before becoming eligible to run (competing load from other users).
	QueueWait dist.Dist
	// DispatchOverhead is the LRMS overhead between scheduling a job and its
	// payload starting (prologue, node health checks).
	DispatchOverhead time.Duration
	// Backfill enables EASY backfill; without it the queue is strict FCFS.
	Backfill bool
	// Clock supplies modeled time (required; a *vclock.Virtual).
	Clock vclock.Clock
	// Stream is the cluster's slot on the experiment's seeding spine.
	// When QueueWait is nil and Stream is set, the canonical stochastic
	// queue-wait model (lognormal, mean 60 s, cv 0.5) is derived from its
	// "queue-wait" child; with neither, queue waits are zero. Defaults to
	// dist.Unseeded("infra/hpc/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Nodes <= 0 {
		out.Nodes = 16
	}
	if out.CoresPerNode <= 0 {
		out.CoresPerNode = 8
	}
	if out.Name == "" {
		out.Name = "hpc"
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/hpc/" + out.Name)
	}
	if out.QueueWait == nil {
		if hasStream {
			out.QueueWait = dist.LogNormalFrom(out.Stream.Named("queue-wait"), 60, 0.5)
		} else {
			out.QueueWait = dist.Constant(0)
		}
	}
	return out
}

// JobSpec describes a batch job submission.
type JobSpec struct {
	// Name labels the job in logs and stats.
	Name string
	// Nodes is the number of whole nodes requested.
	Nodes int
	// Walltime is the requested maximum runtime; the payload context is
	// canceled when it expires. Zero means unlimited.
	Walltime time.Duration
	// Payload is executed once the allocation is granted.
	Payload infra.Payload
}

// Job is a handle to a submitted batch job.
type Job struct {
	id   string
	spec JobSpec

	mu        sync.Mutex
	state     State
	submitted time.Time
	eligible  time.Time
	started   time.Time
	ended     time.Time
	err       error

	done    *vclock.Event
	timeout bool
	cancel  context.CancelFunc
}

// ID returns the backend-assigned job identifier.
func (j *Job) ID() string { return j.id }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the payload error after the job finished.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state.
// Participants of a Virtual clock must use Wait instead.
func (j *Job) Done() <-chan struct{} { return j.done.Done() }

// Wait blocks until the job terminates or ctx is canceled, returning the
// terminal state.
func (j *Job) Wait(ctx context.Context) (State, error) {
	if j.done.Wait(ctx) {
		return j.State(), j.Err()
	}
	return j.State(), ctx.Err()
}

// QueueWait returns the modeled time the job spent queued; valid once the
// job started.
func (j *Job) QueueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	return j.started.Sub(j.submitted)
}

// Runtime returns the modeled run duration; valid after termination.
func (j *Job) Runtime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.ended.IsZero() {
		return 0
	}
	return j.ended.Sub(j.started)
}

// Cluster is a simulated HPC machine. Create with New; all methods are safe
// for concurrent use.
type Cluster struct {
	cfg    Config
	faults infra.Faults

	mu        sync.Mutex
	freeNodes int
	pending   []*Job
	running   map[*Job]time.Time // expected end (start + walltime)
	nextID    int
	closed    bool

	busyNodeSec float64
	opened      time.Time

	queueWaits *metrics.Series
	runtimes   *metrics.Series

	wake *vclock.Notifier
	ctx  context.Context
	stop context.CancelFunc
	wg   *vclock.Group
}

// ErrClusterClosed is returned by Submit after Shutdown; it wraps
// infra.ErrBackendClosed so heterogeneous dispatchers need only one test.
var ErrClusterClosed = fmt.Errorf("hpc: cluster closed: %w", infra.ErrBackendClosed)

// ErrTooLarge is returned when a job requests more nodes than the machine has.
var ErrTooLarge = errors.New("hpc: job requests more nodes than cluster has")

// New creates a cluster and starts its scheduler.
func New(cfg Config) *Cluster {
	c := &Cluster{
		cfg:        cfg.withDefaults(),
		running:    make(map[*Job]time.Time),
		queueWaits: metrics.NewSeries("queue_wait_s"),
		runtimes:   metrics.NewSeries("runtime_s"),
	}
	c.wake = vclock.NewNotifier(c.cfg.Clock)
	c.wg = vclock.NewGroup(c.cfg.Clock)
	c.freeNodes = c.cfg.Nodes
	c.opened = c.cfg.Clock.Now()
	c.ctx, c.stop = context.WithCancel(context.Background())
	c.wg.Add(1)
	vclock.Go(c.cfg.Clock, c.schedulerLoop)
	return c
}

// Name returns the site name.
func (c *Cluster) Name() string { return c.cfg.Name }

// Site returns the cluster's site identity.
func (c *Cluster) Site() infra.Site { return infra.Site(c.cfg.Name) }

// Nodes returns the machine size in nodes.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// CoresPerNode returns the per-node core count.
func (c *Cluster) CoresPerNode() int { return c.cfg.CoresPerNode }

// TotalCores returns the machine size in cores.
func (c *Cluster) TotalCores() int { return c.cfg.Nodes * c.cfg.CoresPerNode }

// Faults returns the cluster's fault switchboard (chaos engineering).
func (c *Cluster) Faults() *infra.Faults { return &c.faults }

// Submit enqueues a batch job. The job becomes eligible to run after its
// sampled exogenous queue delay and runs when FCFS/backfill order and
// capacity allow.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	if spec.Nodes <= 0 {
		spec.Nodes = 1
	}
	if spec.Payload == nil {
		return nil, errors.New("hpc: job spec has nil payload")
	}
	if err := c.faults.Check(); err != nil {
		return nil, fmt.Errorf("hpc: %s: %w", c.cfg.Name, err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClusterClosed
	}
	if spec.Nodes > c.cfg.Nodes {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: want %d have %d", ErrTooLarge, spec.Nodes, c.cfg.Nodes)
	}
	c.nextID++
	now := c.cfg.Clock.Now()
	delay := time.Duration(c.cfg.QueueWait.Sample() * float64(time.Second))
	j := &Job{
		id:        fmt.Sprintf("%s.%d", c.cfg.Name, c.nextID),
		spec:      spec,
		state:     Pending,
		submitted: now,
		eligible:  now.Add(delay),
		done:      vclock.NewEvent(c.cfg.Clock),
	}
	c.pending = append(c.pending, j)
	c.mu.Unlock()
	if delay > 0 {
		c.wakeAfter(delay)
	}
	c.kick()
	return j, nil
}

// Cancel removes a pending job or kills a running one.
func (c *Cluster) Cancel(j *Job) {
	c.mu.Lock()
	switch j.state {
	case Pending:
		for i, p := range c.pending {
			if p == j {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
		j.mu.Lock()
		j.state = Canceled
		j.ended = c.cfg.Clock.Now()
		j.mu.Unlock()
		j.done.Fire()
		c.mu.Unlock()
		return
	case Running:
		cancel := j.cancel
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return
	default:
		c.mu.Unlock()
	}
}

// QueueDepth returns the number of pending jobs.
func (c *Cluster) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// RunningJobs returns the number of running jobs.
func (c *Cluster) RunningJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.running)
}

// FreeNodes returns the number of currently idle nodes.
func (c *Cluster) FreeNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeNodes
}

// Utilization returns busy node-time divided by total node-time since the
// cluster opened.
func (c *Cluster) Utilization() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := c.cfg.Clock.Since(c.opened).Seconds()
	if elapsed <= 0 {
		return 0
	}
	// Include node-time of still-running jobs up to "now".
	busy := c.busyNodeSec
	now := c.cfg.Clock.Now()
	for j := range c.running {
		j.mu.Lock()
		busy += now.Sub(j.started).Seconds() * float64(j.spec.Nodes)
		j.mu.Unlock()
	}
	return busy / (elapsed * float64(c.cfg.Nodes))
}

// QueueWaitStats returns the observed queue-wait sample (seconds).
func (c *Cluster) QueueWaitStats() metrics.Summary { return c.queueWaits.Summary() }

// Shutdown cancels all jobs and stops the scheduler.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	c.closed = true
	pend := append([]*Job(nil), c.pending...)
	c.pending = nil
	var cancels []context.CancelFunc
	for j := range c.running {
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	c.mu.Unlock()
	for _, j := range pend {
		j.mu.Lock()
		j.state = Canceled
		j.ended = c.cfg.Clock.Now()
		j.mu.Unlock()
		j.done.Fire()
	}
	for _, cancel := range cancels {
		cancel()
	}
	c.stop()
	c.wg.Wait()
}

// kick nudges the scheduler loop.
func (c *Cluster) kick() { c.wake.Set() }

// wakeAfter schedules a future kick in virtual time.
func (c *Cluster) wakeAfter(d time.Duration) {
	c.wg.Add(1)
	vclock.Go(c.cfg.Clock, func() {
		defer c.wg.Done()
		if c.cfg.Clock.Sleep(c.ctx, d) {
			c.kick()
		}
	})
}

func (c *Cluster) schedulerLoop() {
	defer c.wg.Done()
	for c.wake.Wait(c.ctx) {
		c.schedule()
	}
}

// schedule implements FCFS with optional EASY backfill over eligible jobs.
func (c *Cluster) schedule() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()

	for {
		startedAny := false
		var head *Job
		for _, j := range c.pending {
			if j.eligible.After(now) {
				continue
			}
			if head == nil {
				head = j
			}
			if j == head {
				if j.spec.Nodes <= c.freeNodes {
					c.startLocked(j, now)
					startedAny = true
					break // pending mutated; rescan
				}
				if !c.cfg.Backfill {
					break
				}
				continue
			}
			// Backfill candidates beyond the head.
			if j.spec.Nodes > c.freeNodes {
				continue
			}
			shadow, extra := c.shadowLocked(head, now)
			fitsExtra := j.spec.Nodes <= extra
			finishesBeforeShadow := j.spec.Walltime > 0 && !now.Add(j.spec.Walltime).After(shadow)
			if fitsExtra || finishesBeforeShadow {
				c.startLocked(j, now)
				startedAny = true
				break
			}
		}
		if !startedAny {
			break
		}
	}
}

// shadowLocked computes the EASY backfill shadow time (earliest time the
// head job could start, assuming running jobs end at their walltime) and
// the number of nodes that will still be free at that time beyond the
// head's requirement.
func (c *Cluster) shadowLocked(head *Job, now time.Time) (time.Time, int) {
	type rel struct {
		at    time.Time
		nodes int
		id    string
	}
	rels := make([]rel, 0, len(c.running))
	for j, end := range c.running {
		rels = append(rels, rel{at: end, nodes: j.spec.Nodes, id: j.id})
	}
	// Tie-break equal release times by job id: c.running is a map, and an
	// order-dependent shadow would make backfill (and thus makespans)
	// nondeterministic across same-seed runs.
	sort.Slice(rels, func(i, k int) bool {
		if !rels[i].at.Equal(rels[k].at) {
			return rels[i].at.Before(rels[k].at)
		}
		return rels[i].id < rels[k].id
	})
	free := c.freeNodes
	for _, r := range rels {
		free += r.nodes
		if free >= head.spec.Nodes {
			return r.at, free - head.spec.Nodes
		}
	}
	// Head can start right away capacity-wise (or never; treat as now).
	return now, c.freeNodes - head.spec.Nodes
}

// startLocked transitions a pending job to running. Caller holds c.mu.
func (c *Cluster) startLocked(j *Job, now time.Time) {
	for i, p := range c.pending {
		if p == j {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	c.freeNodes -= j.spec.Nodes
	expectedEnd := now.Add(j.spec.Walltime)
	if j.spec.Walltime == 0 {
		expectedEnd = now.Add(365 * 24 * time.Hour)
	}
	c.running[j] = expectedEnd

	ctx, cancel := context.WithCancel(c.ctx)
	j.mu.Lock()
	j.state = Running
	j.started = now
	j.cancel = cancel
	j.mu.Unlock()
	c.queueWaits.Add(now.Sub(j.submitted).Seconds())

	alloc := infra.Allocation{
		ID:      j.id,
		Site:    c.Site(),
		Cores:   j.spec.Nodes * c.cfg.CoresPerNode,
		Nodes:   infra.NodeNames(c.cfg.Name, j.spec.Nodes),
		Granted: now,
	}

	c.wg.Add(1)
	vclock.Go(c.cfg.Clock, func() {
		defer c.wg.Done()
		c.runJob(ctx, cancel, j, alloc)
	})
}

func (c *Cluster) runJob(ctx context.Context, cancel context.CancelFunc, j *Job, alloc infra.Allocation) {
	defer cancel()
	// Walltime watchdog.
	if j.spec.Walltime > 0 {
		c.wg.Add(1)
		vclock.Go(c.cfg.Clock, func() {
			defer c.wg.Done()
			if c.cfg.Clock.Sleep(ctx, j.spec.Walltime) {
				j.mu.Lock()
				j.timeout = true
				j.mu.Unlock()
				cancel()
			}
		})
	}
	if c.cfg.DispatchOverhead > 0 {
		c.cfg.Clock.Sleep(ctx, c.cfg.DispatchOverhead)
	}
	err := j.spec.Payload(ctx, alloc)
	now := c.cfg.Clock.Now()

	j.mu.Lock()
	j.ended = now
	switch {
	case j.timeout:
		j.state = TimedOut
		j.err = context.DeadlineExceeded
	case ctx.Err() != nil && err != nil:
		j.state = Canceled
		j.err = err
	case err != nil:
		j.state = Failed
		j.err = err
	default:
		j.state = Completed
	}
	started := j.started
	j.mu.Unlock()

	c.mu.Lock()
	delete(c.running, j)
	c.freeNodes += j.spec.Nodes
	c.busyNodeSec += now.Sub(started).Seconds() * float64(j.spec.Nodes)
	c.mu.Unlock()
	c.runtimes.Add(now.Sub(started).Seconds())
	j.done.Fire()
	c.kick()
}
