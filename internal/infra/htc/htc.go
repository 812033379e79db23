// Package htc simulates a high-throughput computing pool in the style of
// Condor/OSG: a large collection of single-core (or few-core) slots,
// per-job matchmaking overhead, and opportunistic resources that can evict
// a running job at any time. These are exactly the behaviours that make
// per-task submission expensive and unreliable — and that the
// pilot-abstraction hides (paper Section IV).
package htc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/metrics"
	"gopilot/internal/vclock"
)

// State is the lifecycle state of an HTC job.
type State int

// HTC job states.
const (
	Idle State = iota // matchmaking
	Running
	Completed
	Evicted // terminal only if retries exhausted
	Failed
	Canceled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "Idle"
	case Running:
		return "Running"
	case Completed:
		return "Completed"
	case Evicted:
		return "Evicted"
	case Failed:
		return "Failed"
	case Canceled:
		return "Canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config describes a simulated HTC pool.
type Config struct {
	// Name is the site name.
	Name string
	// Slots is the number of concurrently usable execution slots.
	Slots int
	// CoresPerSlot is the core count of each slot (usually 1).
	CoresPerSlot int
	// MatchDelay samples per-job matchmaking/negotiation overhead in seconds.
	MatchDelay dist.Dist
	// EvictionRate is the per-job probability that a run attempt is evicted
	// partway through (opportunistic resources reclaimed by their owner).
	EvictionRate float64
	// MaxRetries bounds automatic re-matching after eviction.
	MaxRetries int
	// Clock supplies modeled time (required; a *vclock.Virtual).
	Clock vclock.Clock
	// Stream is the pool's slot on the experiment's seeding spine. Every
	// submitted job draws its eviction sequence from the "evict"/<job
	// ordinal> child, so concurrent jobs never share a generator and
	// submitting an additional job cannot shift an existing job's draws.
	// When MatchDelay is nil and Stream is set, the canonical stochastic
	// matchmaking model (lognormal, mean 15 s, cv 0.5) is derived from the
	// "match-delay" child; with neither, matchmaking is instantaneous.
	// Defaults to dist.Unseeded("infra/htc/<name>").
	Stream *dist.Stream
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Name == "" {
		out.Name = "htc"
	}
	if out.Slots <= 0 {
		out.Slots = 64
	}
	if out.CoresPerSlot <= 0 {
		out.CoresPerSlot = 1
	}
	hasStream := out.Stream != nil
	if !hasStream {
		out.Stream = dist.Unseeded("infra/htc/" + out.Name)
	}
	if out.MatchDelay == nil {
		if hasStream {
			out.MatchDelay = dist.LogNormalFrom(out.Stream.Named("match-delay"), 15, 0.5)
		} else {
			out.MatchDelay = dist.Constant(0)
		}
	}
	if out.MaxRetries < 0 {
		out.MaxRetries = 0
	}
	return out
}

// JobSpec describes an HTC job: a payload that will be granted one slot.
type JobSpec struct {
	// Name labels the job.
	Name string
	// Runtime is the modeled service time of the payload if the payload
	// itself only computes (used for eviction-point sampling). Zero is fine;
	// evictions then trigger immediately after start.
	Runtime time.Duration
	// Payload runs on the granted slot.
	Payload infra.Payload
}

// Job is a handle to a submitted HTC job.
type Job struct {
	id   string
	spec JobSpec

	// rng is the job's own "evict"/<ordinal> stream; evict draws one
	// success/failure per run attempt from it. Per-job streams make the
	// eviction sequence a property of the job's identity, not of how pool
	// load interleaves.
	rng   *dist.Stream
	evict *dist.BernoulliDist

	mu        sync.Mutex
	state     State
	attempts  int
	submitted time.Time
	started   time.Time
	ended     time.Time
	err       error
	cancelled bool

	done *vclock.Event
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Attempts returns how many run attempts were made (1 + evict-retries).
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Err returns the terminal error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed at terminal state. Participants of a
// Virtual clock must use Wait instead.
func (j *Job) Done() <-chan struct{} { return j.done.Done() }

// Wait blocks for terminal state or ctx cancellation.
func (j *Job) Wait(ctx context.Context) (State, error) {
	if j.done.Wait(ctx) {
		return j.State(), j.Err()
	}
	return j.State(), ctx.Err()
}

// TurnaroundTime is submission-to-termination in modeled time.
func (j *Job) TurnaroundTime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ended.IsZero() {
		return 0
	}
	return j.ended.Sub(j.submitted)
}

// Pool is a simulated HTC pool.
type Pool struct {
	cfg    Config
	faults infra.Faults

	slots     *vclock.Sem  // counting semaphore of execution slots
	evictRoot *dist.Stream // parent of per-job eviction streams

	mu     sync.Mutex
	nextID int
	closed bool
	active []*stormHandle // running attempts, in start order (for Storm)

	matchDelays *metrics.Series
	evictions   int

	ctx  context.Context
	stop context.CancelFunc
	wg   *vclock.Group
}

// ErrPoolClosed is returned by Submit after Shutdown; it wraps
// infra.ErrBackendClosed so heterogeneous dispatchers need only one test.
var ErrPoolClosed = fmt.Errorf("htc: pool closed: %w", infra.ErrBackendClosed)

// New creates an HTC pool.
func New(cfg Config) *Pool {
	p := &Pool{
		cfg:         cfg.withDefaults(),
		matchDelays: metrics.NewSeries("match_delay_s"),
	}
	p.slots = vclock.NewSem(p.cfg.Clock, p.cfg.Slots)
	p.wg = vclock.NewGroup(p.cfg.Clock)
	p.evictRoot = p.cfg.Stream.Named("evict")
	p.ctx, p.stop = context.WithCancel(context.Background())
	return p
}

// Name returns the pool's site name.
func (p *Pool) Name() string { return p.cfg.Name }

// Site returns the pool's site identity.
func (p *Pool) Site() infra.Site { return infra.Site(p.cfg.Name) }

// Slots returns the pool capacity in slots.
func (p *Pool) Slots() int { return p.cfg.Slots }

// Faults returns the pool's fault switchboard (chaos engineering).
func (p *Pool) Faults() *infra.Faults { return &p.faults }

// stormHandle exposes a running attempt's eviction controls to Storm.
type stormHandle struct {
	evicted *atomic.Bool
	cancel  context.CancelFunc
}

// Storm evicts every attempt currently running on the pool, in attempt
// start order — the chaos engine's "opportunistic owners reclaim the whole
// pool at once" fault. Evicted attempts retry through the job's normal
// budget. Returns the number of attempts evicted.
func (p *Pool) Storm() int {
	p.mu.Lock()
	hs := append([]*stormHandle(nil), p.active...)
	p.mu.Unlock()
	for _, h := range hs {
		h.evicted.Store(true)
		h.cancel()
	}
	return len(hs)
}

// Evictions returns the total evictions observed.
func (p *Pool) Evictions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// MatchDelayStats summarizes observed matchmaking delays (seconds).
func (p *Pool) MatchDelayStats() metrics.Summary { return p.matchDelays.Summary() }

// Submit enqueues a job for matchmaking.
func (p *Pool) Submit(spec JobSpec) (*Job, error) {
	if spec.Payload == nil {
		return nil, errors.New("htc: job spec has nil payload")
	}
	if err := p.faults.Check(); err != nil {
		return nil, fmt.Errorf("htc: %s: %w", p.cfg.Name, err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.nextID++
	rng := p.evictRoot.SplitLabel(uint64(p.nextID))
	j := &Job{
		id:        fmt.Sprintf("%s.%d", p.cfg.Name, p.nextID),
		spec:      spec,
		rng:       rng,
		evict:     dist.BernoulliFrom(rng, p.cfg.EvictionRate),
		state:     Idle,
		submitted: p.cfg.Clock.Now(),
		done:      vclock.NewEvent(p.cfg.Clock),
	}
	p.mu.Unlock()
	p.wg.Add(1)
	vclock.Go(p.cfg.Clock, func() {
		defer p.wg.Done()
		p.run(j)
	})
	return j, nil
}

// Cancel requests job cancellation.
func (p *Pool) Cancel(j *Job) {
	j.mu.Lock()
	j.cancelled = true
	j.mu.Unlock()
}

// Shutdown stops the pool; running payload contexts are canceled.
func (p *Pool) Shutdown() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.stop()
	p.wg.Wait()
}

func (p *Pool) run(j *Job) {
	for {
		// Matchmaking delay before a slot is even negotiated.
		delay := time.Duration(p.cfg.MatchDelay.Sample() * float64(time.Second))
		p.matchDelays.Add(delay.Seconds())
		if !p.cfg.Clock.Sleep(p.ctx, delay) {
			p.finish(j, Canceled, p.ctx.Err())
			return
		}
		if j.isCancelled() {
			p.finish(j, Canceled, context.Canceled)
			return
		}
		// Acquire a slot.
		if !p.slots.Acquire(p.ctx) {
			p.finish(j, Canceled, p.ctx.Err())
			return
		}
		state, err := p.attempt(j)
		p.slots.Release()
		switch state {
		case Evicted:
			j.mu.Lock()
			retry := j.attempts <= p.cfg.MaxRetries && !j.cancelled
			j.mu.Unlock()
			p.mu.Lock()
			p.evictions++
			p.mu.Unlock()
			if retry {
				continue // rematch
			}
			p.finish(j, Evicted, errors.New("htc: evicted, retries exhausted"))
			return
		default:
			p.finish(j, state, err)
			return
		}
	}
}

// attempt runs the payload once; it may be interrupted by a sampled
// eviction event.
func (p *Pool) attempt(j *Job) (State, error) {
	now := p.cfg.Clock.Now()
	j.mu.Lock()
	j.attempts++
	j.state = Running
	if j.started.IsZero() {
		j.started = now
	}
	attempt := j.attempts
	j.mu.Unlock()

	ctx, cancel := context.WithCancel(p.ctx)
	defer cancel()

	// Eviction lands in the first half of the estimated runtime so that an
	// accurate runtime estimate guarantees interruption; a payload that
	// finishes early simply escapes the eviction, as on a real pool. Both
	// draws come from the job's own labeled stream — two per attempt, so a
	// retry continues the job's sequence.
	var evicted atomic.Bool
	h := &stormHandle{evicted: &evicted, cancel: cancel}
	p.mu.Lock()
	p.active = append(p.active, h)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		for i, x := range p.active {
			if x == h {
				p.active = append(p.active[:i], p.active[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
	}()
	willEvict := j.evict.Sample() == 1
	evictFrac := 0.1 + 0.4*j.rng.Float64()
	if willEvict && j.spec.Runtime > 0 {
		evictAfter := time.Duration(float64(j.spec.Runtime) * evictFrac)
		p.wg.Add(1)
		vclock.Go(p.cfg.Clock, func() {
			defer p.wg.Done()
			if p.cfg.Clock.Sleep(ctx, evictAfter) {
				evicted.Store(true)
				cancel()
			}
		})
	}

	alloc := infra.Allocation{
		ID:      fmt.Sprintf("%s.a%d", j.id, attempt),
		Site:    p.Site(),
		Cores:   p.cfg.CoresPerSlot,
		Nodes:   []string{fmt.Sprintf("%s-slot", p.cfg.Name)},
		Granted: now,
	}
	err := j.spec.Payload(ctx, alloc)
	if evicted.Load() {
		return Evicted, nil
	}
	switch infra.ClassifyOutcome(p.ctx.Err(), err) {
	case infra.OutcomeCanceled:
		return Canceled, p.ctx.Err()
	case infra.OutcomeFailed:
		return Failed, err
	default:
		return Completed, nil
	}
}

func (p *Pool) finish(j *Job, s State, err error) {
	j.mu.Lock()
	j.state = s
	j.err = err
	j.ended = p.cfg.Clock.Now()
	j.mu.Unlock()
	j.done.Fire()
}

func (j *Job) isCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}
