package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/infra"
	"gopilot/internal/metrics"
	"gopilot/internal/plan"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// Scheduler decides which pilot a pending unit binds to. Candidates are
// running pilots with enough free cores; returning nil defers the unit.
// Implementations live in package scheduler; the manager defaults to
// first-fit FIFO. The manager wires the policy into the control plane's
// TickPlanner (package plan), which owns the queue and retry state around
// this choice.
type Scheduler interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// SelectPilot picks a pilot for the unit from candidates (never
	// empty). The slice is valid only during the call: the manager reuses
	// its backing array, so implementations must not retain it.
	SelectPilot(cu *ComputeUnit, candidates []*Pilot, data DataService) *Pilot
}

// firstFit is the default scheduler: bind to the first candidate, which —
// given submit-order iteration — yields FIFO with opportunistic backfill.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }

func (firstFit) SelectPilot(cu *ComputeUnit, candidates []*Pilot, _ DataService) *Pilot {
	return candidates[0]
}

// Config configures a Manager.
type Config struct {
	// Registry resolves pilot resource URLs to saga services.
	Registry *saga.Registry
	// Clock supplies modeled time (required; a *vclock.Virtual).
	Clock vclock.Clock
	// Scheduler is the late-binding policy; defaults to first-fit FIFO.
	Scheduler Scheduler
	// Data is the Pilot-Data service; nil disables data staging.
	Data DataService
	// Stream is the manager's slot on the experiment's seeding spine.
	// Every pilot and unit receives a labeled child ("pilot"/<ordinal>,
	// "unit"/<ordinal>) derived from it, so draws made by one component
	// never shift another's — and a unit keeps the same stream across
	// retries and regardless of which pilot it lands on. The planner's
	// retry jitter lives in its own "retry"/<ordinal> subtree. Defaults to
	// dist.Unseeded("manager"); experiments should pass a named child of
	// their own root instead.
	Stream *dist.Stream
	// OnUnitChange, if set, observes every unit state transition
	// (instrumentation hook used by the Mini-App framework).
	OnUnitChange func(cu *ComputeUnit, state UnitState)
	// Backoff shapes the retry delay applied by the planner when a pilot
	// is lost under (or before) a unit; zero fields take the defaults
	// documented on plan.Backoff.
	Backoff plan.Backoff
	// ReconcileEvery is the drift-reconciliation period in virtual time:
	// desired unit/pilot state is compared against agent state and
	// divergences are corrected. Zero means the 30s default; negative
	// disables the reconciler.
	ReconcileEvery time.Duration
}

// DefaultReconcileEvery is the reconciler period used when
// Config.ReconcileEvery is zero.
const DefaultReconcileEvery = 30 * time.Second

// Manager is the Pilot-Manager of the P* model: it owns pilots and the
// unit lifecycle, and corresponds to the Pilot-API's
// PilotComputeService/ComputeDataService pair. Placement itself is
// delegated: a plan.Planner owns the pending queue, retry budget/backoff
// and per-backend watermarks, and the manager's dispatch loop just asks
// it for decisions and executes them.
type Manager struct {
	cfg Config

	pilotRoot *dist.Stream // parent of per-pilot streams ("pilot"/<ordinal>)
	unitRoot  *dist.Stream // parent of per-unit streams ("unit"/<ordinal>)

	mu          sync.Mutex
	planner     *plan.Planner
	recon       *plan.Reconciler
	pilots      []*Pilot
	units       []*ComputeUnit
	live        []*ComputeUnit // non-terminal units in submission order; compacted by ReconcileOnce
	pilotByID   map[string]*Pilot
	unitByID    map[string]*ComputeUnit
	nextPilotID int
	nextUnitID  int
	activeUnits int
	idle        *vclock.Event
	nextWake    time.Time // earliest scheduled dispatch self-wake
	exec        plannerExec
	closed      bool

	kick      *vclock.Notifier
	reconKick *vclock.Notifier
	ctx       context.Context
	stop      context.CancelFunc
	wg        *vclock.Group
}

// ErrManagerClosed is returned by submissions after Close.
var ErrManagerClosed = errors.New("core: manager closed")

// NewManager creates a Manager and starts its dispatch and reconcile
// loops.
func NewManager(cfg Config) *Manager {
	if cfg.Registry == nil {
		cfg.Registry = saga.NewRegistry()
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = firstFit{}
	}
	if cfg.Stream == nil {
		cfg.Stream = dist.Unseeded("manager")
	}
	if cfg.ReconcileEvery == 0 {
		cfg.ReconcileEvery = DefaultReconcileEvery
	}
	m := &Manager{
		cfg:       cfg,
		pilotRoot: cfg.Stream.Named("pilot"),
		unitRoot:  cfg.Stream.Named("unit"),
		pilotByID: make(map[string]*Pilot),
		unitByID:  make(map[string]*ComputeUnit),
		recon:     plan.NewReconciler(),
		idle:      vclock.NewEvent(cfg.Clock),
		kick:      vclock.NewNotifier(cfg.Clock),
		reconKick: vclock.NewNotifier(cfg.Clock),
		wg:        vclock.NewGroup(cfg.Clock),
	}
	m.exec.m = m
	var pilots []*Pilot // the policy adapter's reused candidate buffer
	m.planner = plan.New(plan.Config{
		Stream:  cfg.Stream,
		Backoff: cfg.Backoff,
		// The policy adapter resolves planner IDs back to live objects for
		// the pluggable Scheduler. It runs inside Plan, under m.mu.
		Policy: func(u plan.UnitSpec, cands []plan.Candidate) string {
			cu := m.unitByID[u.ID]
			if cu == nil {
				return ""
			}
			pilots = pilots[:0]
			for _, c := range cands {
				if p := m.pilotByID[c.ID]; p != nil {
					pilots = append(pilots, p)
				}
			}
			if len(pilots) == 0 {
				return ""
			}
			p := m.cfg.Scheduler.SelectPilot(cu, pilots, m.cfg.Data)
			if p == nil {
				return ""
			}
			return p.id
		},
	})
	m.idle.Fire() // no active units yet: idle
	m.ctx, m.stop = context.WithCancel(context.Background())
	m.wg.Add(1)
	vclock.Go(cfg.Clock, m.dispatchLoop)
	if cfg.ReconcileEvery > 0 {
		m.wg.Add(1)
		vclock.Go(cfg.Clock, m.reconcileLoop)
	}
	return m
}

// Clock returns the manager's clock (tasks and frameworks share it).
func (m *Manager) Clock() vclock.Clock { return m.cfg.Clock }

// Data returns the configured data service (may be nil).
func (m *Manager) Data() DataService { return m.cfg.Data }

// Registry returns the saga registry.
func (m *Manager) Registry() *saga.Registry { return m.cfg.Registry }

// SchedulerName returns the active scheduling policy's name.
func (m *Manager) SchedulerName() string { return m.cfg.Scheduler.Name() }

// Stream returns the manager's randomness root on the seeding spine.
// Frameworks running on the manager (apps, processors) derive their own
// labeled children from it when not handed a stream explicitly.
func (m *Manager) Stream() *dist.Stream { return m.cfg.Stream }

// Watermarks returns the planner's per-backend dispatch watermarks.
func (m *Manager) Watermarks() map[string]plan.Watermark {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planner.Watermarks()
}

// SubmitPilot submits a placeholder job to the resource named in the
// description and returns immediately with a Pending pilot.
func (m *Manager) SubmitPilot(d PilotDescription) (*Pilot, error) {
	if d.Cores <= 0 {
		d.Cores = 1
	}
	svc, err := m.cfg.Registry.Lookup(d.Resource)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	m.nextPilotID++
	p := &Pilot{
		id:        fmt.Sprintf("pilot-%d", m.nextPilotID),
		desc:      d,
		manager:   m,
		stream:    m.pilotRoot.SplitLabel(uint64(m.nextPilotID)),
		state:     PilotPending,
		running:   make(map[*ComputeUnit]struct{}),
		submitted: m.cfg.Clock.Now(),
		workN:     vclock.NewNotifier(m.cfg.Clock),
		stop:      vclock.NewEvent(m.cfg.Clock),
		started:   vclock.NewEvent(m.cfg.Clock),
		done:      vclock.NewEvent(m.cfg.Clock),
	}
	// A backend outage must empty the candidate set for pilots already
	// running there, so the pilot caches its service's fault switchboard
	// when the adaptor exposes one.
	if fp, ok := svc.(interface{ Faults() *infra.Faults }); ok {
		p.faults = fp.Faults()
	}
	m.pilots = append(m.pilots, p)
	m.pilotByID[p.id] = p
	m.mu.Unlock()

	job, err := svc.Submit(saga.Description{
		Name:       d.Name,
		TotalCores: d.Cores,
		Walltime:   d.Walltime,
		Payload:    p.agentRun,
		Attributes: d.Attributes,
	})
	if err != nil {
		m.mu.Lock()
		for i, q := range m.pilots {
			if q == p {
				m.pilots = append(m.pilots[:i], m.pilots[i+1:]...)
				break
			}
		}
		delete(m.pilotByID, p.id)
		m.mu.Unlock()
		return nil, fmt.Errorf("core: pilot submission to %s failed: %w", d.Resource, err)
	}
	p.mu.Lock()
	p.job = job
	p.mu.Unlock()
	m.reconKick.Set()
	m.wg.Add(1)
	vclock.Go(m.cfg.Clock, func() {
		defer m.wg.Done()
		job.Wait(context.Background())
		m.pilotEnded(p, job)
	})
	return p, nil
}

// SubmitUnit adds a unit to the planner's queue for late binding.
func (m *Manager) SubmitUnit(d UnitDescription) (*ComputeUnit, error) {
	if d.Run == nil {
		return nil, errors.New("core: unit description has nil Run")
	}
	if d.Cores <= 0 {
		d.Cores = 1
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	m.nextUnitID++
	u := &ComputeUnit{
		id:        fmt.Sprintf("unit-%d", m.nextUnitID),
		desc:      d,
		stream:    m.unitRoot.SplitLabel(uint64(m.nextUnitID)),
		state:     UnitPending,
		submitted: m.cfg.Clock.Now(),
		done:      vclock.NewEvent(m.cfg.Clock),
	}
	m.units = append(m.units, u)
	m.live = append(m.live, u)
	m.unitByID[u.id] = u
	m.planner.Admit(plan.UnitSpec{
		ID:         u.id,
		Ordinal:    uint64(m.nextUnitID),
		Cores:      d.Cores,
		MaxRetries: d.MaxRetries,
	})
	if m.activeUnits == 0 {
		m.idle = vclock.NewEvent(m.cfg.Clock)
	}
	m.activeUnits++
	m.mu.Unlock()
	m.notify(u, UnitPending)
	m.reconKick.Set()
	m.wake()
	return u, nil
}

// SubmitUnits submits a batch of units in order.
func (m *Manager) SubmitUnits(ds []UnitDescription) ([]*ComputeUnit, error) {
	out := make([]*ComputeUnit, 0, len(ds))
	for _, d := range ds {
		u, err := m.SubmitUnit(d)
		if err != nil {
			return out, err
		}
		out = append(out, u)
	}
	return out, nil
}

// CancelUnit cancels a unit: pending units terminate immediately, running
// units have their task context canceled.
func (m *Manager) CancelUnit(u *ComputeUnit) {
	u.mu.Lock()
	u.cancelled = true
	cancel := u.cancelRun
	state := u.state
	u.mu.Unlock()
	if state == UnitPending {
		m.mu.Lock()
		m.planner.Forget(u.id)
		m.mu.Unlock()
		m.finishUnit(nil, u, UnitCanceled, context.Canceled)
		return
	}
	if cancel != nil {
		cancel()
	}
}

// Pilots returns a snapshot of all pilots.
func (m *Manager) Pilots() []*Pilot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Pilot(nil), m.pilots...)
}

// Units returns a snapshot of all units ever submitted.
func (m *Manager) Units() []*ComputeUnit {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*ComputeUnit(nil), m.units...)
}

// QueueDepth returns the number of units awaiting binding (including
// units parked in retry backoff).
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planner.PendingLen()
}

// WaitAll blocks until every submitted unit is terminal, or ctx is done.
func (m *Manager) WaitAll(ctx context.Context) error {
	for {
		m.mu.Lock()
		if m.activeUnits == 0 {
			m.mu.Unlock()
			return nil
		}
		ev := m.idle
		m.mu.Unlock()
		if !ev.Wait(ctx) {
			return ctx.Err()
		}
	}
}

// Close cancels all pilots and pending units and stops the dispatch and
// reconcile loops.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var pend []*ComputeUnit
	for _, id := range m.planner.DrainPending() {
		if u := m.unitByID[id]; u != nil {
			pend = append(pend, u)
		}
	}
	pilots := append([]*Pilot(nil), m.pilots...)
	m.mu.Unlock()

	for _, u := range pend {
		u.mu.Lock()
		u.cancelled = true
		u.mu.Unlock()
		m.finishUnit(nil, u, UnitCanceled, ErrManagerClosed)
	}
	for _, p := range pilots {
		p.Shutdown()
	}
	m.stop()
	m.wg.Wait()
}

// UnitMetrics summarizes waiting/runtime/turnaround over all Done units, in
// seconds — the raw material of the paper's performance tables.
func (m *Manager) UnitMetrics() (waiting, runtime, turnaround metrics.Summary) {
	m.mu.Lock()
	units := append([]*ComputeUnit(nil), m.units...)
	m.mu.Unlock()
	var w, r, t []float64
	for _, u := range units {
		if u.State() != UnitDone {
			continue
		}
		w = append(w, u.WaitingTime().Seconds())
		r = append(r, u.Runtime().Seconds())
		t = append(t, u.TurnaroundTime().Seconds())
	}
	return metrics.Summarize(w), metrics.Summarize(r), metrics.Summarize(t)
}

// ---------------------------------------------------------------------------
// Internal machinery
// ---------------------------------------------------------------------------

func (m *Manager) wake() { m.kick.Set() }

// Kick nudges the dispatch loop to run a late-binding pass now. The chaos
// engine calls it when an injected backend outage clears: recovery alone
// produces no dispatch-visible event, so without a kick units would wait
// for the next unrelated wake-up.
func (m *Manager) Kick() { m.wake() }

func (m *Manager) notify(u *ComputeUnit, s UnitState) {
	if m.cfg.OnUnitChange != nil {
		m.cfg.OnUnitChange(u, s)
	}
}

func (m *Manager) dispatchLoop() {
	defer m.wg.Done()
	for m.kick.Wait(m.ctx) {
		m.dispatchOnce()
	}
}

// dispatchOnce performs one late-binding pass: it asks the planner for
// this instant's decisions and executes them through the plannerExec
// callbacks. If the planner is holding units in retry backoff, a
// self-wake is scheduled for the earliest eligibility instant.
func (m *Manager) dispatchOnce() {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	m.exec.now = now
	next := m.planner.Plan(now, &m.exec)
	if !next.IsZero() {
		m.wakeAtLocked(next)
	}
	m.mu.Unlock()
}

// plannerExec executes planner decisions against the live world. Its
// methods are called synchronously from plan.Plan while m.mu is held, so
// each bind is visible to the next unit's candidate query within the
// same tick. The manager keeps one plannerExec and reuses it every tick.
type plannerExec struct {
	m     *Manager
	now   time.Time
	cands []plan.Candidate // Candidates' reused result buffer
}

// reachableFree returns p's free cores and whether Candidates may offer
// p at all: it must be running, and a pilot whose backend is inside an
// injected outage window is unreachable. MaxFree and Candidates share it,
// so the capacity gate can never disagree with the candidate query.
func (p *Pilot) reachableFree() (free int, ok bool) {
	p.mu.Lock()
	free, running := p.freeCores, p.state == PilotRunning
	p.mu.Unlock()
	return free, running && !p.faults.Down()
}

// MaxFree implements plan.Executor: the largest free capacity among the
// pilots Candidates can return.
func (e *plannerExec) MaxFree() int {
	best := math.MinInt
	for _, p := range e.m.pilots {
		if free, ok := p.reachableFree(); ok && free > best {
			best = free
		}
	}
	return best
}

// Candidates implements plan.Executor: the reachable pilots with room for
// u right now.
func (e *plannerExec) Candidates(u plan.UnitSpec) []plan.Candidate {
	if e.m.unitByID[u.ID] == nil {
		return nil
	}
	out := e.cands[:0]
	for _, p := range e.m.pilots {
		if free, ok := p.reachableFree(); ok && free >= u.Cores {
			out = append(out, plan.Candidate{ID: p.id, Backend: p.desc.Resource, FreeCores: free})
		}
	}
	e.cands = out
	return out
}

// Bind implements plan.Executor: reserve cores, mark the unit Scheduled
// and hand it to the pilot's agent.
func (e *plannerExec) Bind(u plan.UnitSpec, pilotID string) {
	m := e.m
	cu := m.unitByID[u.ID]
	p := m.pilotByID[pilotID]
	if cu == nil || p == nil {
		return
	}
	p.mu.Lock()
	p.freeCores -= cu.desc.Cores
	p.running[cu] = struct{}{}
	p.mu.Unlock()
	cu.mu.Lock()
	cu.state = UnitScheduled
	cu.pilot = p
	cu.scheduled = e.now
	cu.mu.Unlock()
	if vclock.Recording(m.cfg.Clock) {
		vclock.Mark(m.cfg.Clock, "bind "+u.ID+" -> "+pilotID, u.Ordinal)
	}
	m.notify(cu, UnitScheduled)
	p.pushWork(cu)
}

// wakeAtLocked schedules a dispatch self-wake at t (m.mu must be held).
// Only an improvement on the earliest outstanding wake spawns a sleeper;
// late sleepers just trigger a no-op dispatch pass.
func (m *Manager) wakeAtLocked(t time.Time) {
	if m.closed {
		return
	}
	if !m.nextWake.IsZero() && !t.Before(m.nextWake) {
		return
	}
	m.nextWake = t
	d := t.Sub(m.cfg.Clock.Now())
	if d < 0 {
		d = 0
	}
	m.wg.Add(1)
	vclock.Go(m.cfg.Clock, func() {
		defer m.wg.Done()
		if !m.cfg.Clock.Sleep(m.ctx, d) {
			return
		}
		m.mu.Lock()
		if m.nextWake.Equal(t) {
			m.nextWake = time.Time{}
		}
		m.mu.Unlock()
		m.wake()
	})
}

// pilotStarted registers the agent's allocation (called from agentRun).
func (m *Manager) pilotStarted(p *Pilot, alloc infra.Allocation) {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	p.mu.Lock()
	p.state = PilotRunning
	p.site = alloc.Site
	p.alloc = alloc
	p.freeCores = p.desc.Cores
	p.startedAt = now
	p.mu.Unlock()
	m.mu.Unlock()
	p.started.Fire()
	m.wake()
}

// pilotEnded finalizes a pilot when its placeholder job terminates, and
// routes units that were assigned but never picked up through the
// planner's pre-start failure path.
func (m *Manager) pilotEnded(p *Pilot, job saga.Job) {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	p.mu.Lock()
	switch job.State() {
	case saga.Done:
		p.state = PilotDone
	case saga.Canceled:
		p.state = PilotCanceled
		p.err = job.Err()
	default:
		p.state = PilotFailed
		p.err = job.Err()
	}
	p.ended = now
	p.mu.Unlock()

	// Units stuck in the work queue (agent gone) go back to the planner.
	stranded := p.drainWork()
	m.mu.Unlock()
	for _, cu := range stranded {
		m.returnSlots(p, cu)
		m.requeueOrFail(cu, plan.FailurePreStart,
			fmt.Errorf("core: pilot %s terminated before unit start", p.id))
	}
	p.started.Fire() // unblock WaitRunning callers on failed pilots
	p.done.Fire()
	m.wake()
}

func (m *Manager) cancelPilot(p *Pilot) {
	// Cancel the placeholder job through the agent context: closing stopCh
	// makes agentRun return nil, which ends the saga job as Done; to force
	// cancellation semantics we mark the state first.
	p.Shutdown()
}

// executeUnit stages, runs and finalizes one unit on pilot p. It runs on
// the agent's goroutine pool; ctx is the pilot's payload context.
func (m *Manager) executeUnit(ctx context.Context, p *Pilot, cu *ComputeUnit) {
	if cu.State() == UnitCanceled || cu.isCancelled() {
		m.returnSlots(p, cu)
		m.finishUnit(p, cu, UnitCanceled, context.Canceled)
		return
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	cu.mu.Lock()
	cu.cancelRun = cancel
	cu.attempts++
	cu.mu.Unlock()

	site := p.Site()
	// Stage inputs to the pilot's site (Pilot-Data integration).
	if len(cu.desc.InputData) > 0 && m.cfg.Data != nil {
		cu.setState(UnitStaging)
		m.notify(cu, UnitStaging)
		for _, id := range cu.desc.InputData {
			if err := m.cfg.Data.StageIn(runCtx, id, site); err != nil {
				m.returnSlots(p, cu)
				if runCtx.Err() != nil && !cu.isCancelled() {
					m.requeueOrFail(cu, plan.FailureExecution, fmt.Errorf("core: staging interrupted: %w", err))
				} else if cu.isCancelled() {
					m.finishUnit(p, cu, UnitCanceled, err)
				} else {
					m.finishUnit(p, cu, UnitFailed, fmt.Errorf("core: stage-in of %s failed: %w", id, err))
				}
				return
			}
		}
	}

	now := m.cfg.Clock.Now()
	cu.mu.Lock()
	cu.state = UnitRunning
	cu.started = now
	cu.mu.Unlock()
	m.notify(cu, UnitRunning)

	tc := TaskContext{
		Unit:  cu,
		Cores: cu.desc.Cores,
		Site:  site,
		Alloc: p.allocation(),
		Data:  m.cfg.Data,
		Sleep: m.cfg.Clock.Sleep,
		Compute: func(ctx context.Context, fn func()) bool {
			return vclock.Compute(m.cfg.Clock, ctx, fn)
		},
		Stream: cu.stream,
	}
	err := cu.desc.Run(runCtx, tc)

	m.returnSlots(p, cu)
	switch {
	case cu.isCancelled():
		m.finishUnit(p, cu, UnitCanceled, context.Canceled)
	case runCtx.Err() != nil && ctx.Err() != nil:
		// The pilot died under the unit (walltime/eviction): retry budget
		// decides between requeue and failure.
		m.requeueOrFail(cu, plan.FailureExecution,
			fmt.Errorf("core: pilot %s lost during execution: %w", p.id, runCtx.Err()))
	case err != nil:
		m.finishUnit(p, cu, UnitFailed, err)
	default:
		m.finishUnit(p, cu, UnitDone, nil)
	}
}

// returnSlots releases the unit's reservation on p.
func (m *Manager) returnSlots(p *Pilot, cu *ComputeUnit) {
	p.mu.Lock()
	if _, ok := p.running[cu]; ok {
		delete(p.running, cu)
		p.freeCores += cu.desc.Cores
		p.unitsDone++
	}
	p.mu.Unlock()
	m.wake()
}

// requeueOrFail routes a failed dispatch through the planner: one charge
// against the unit's shared MaxRetries budget, then either a backoff-
// delayed requeue or terminal failure.
func (m *Manager) requeueOrFail(cu *ComputeUnit, class plan.FailureClass, cause error) {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	if m.closed {
		m.planner.Forget(cu.id)
		m.mu.Unlock()
		m.finishUnit(nil, cu, UnitCanceled, ErrManagerClosed)
		return
	}
	var v plan.Verdict
	if cu.isCancelled() {
		m.planner.Forget(cu.id)
	} else {
		v = m.planner.NoteFailure(cu.id, class, now)
	}
	if v.Retry {
		cu.mu.Lock()
		cu.state = UnitPending
		cu.pilot = nil
		cu.cancelRun = nil
		cu.mu.Unlock()
	}
	m.mu.Unlock()
	if !v.Retry {
		m.finishUnit(nil, cu, UnitFailed, cause)
		return
	}
	m.notify(cu, UnitPending)
	m.wake()
}

// finishUnit moves a unit to a terminal state exactly once.
func (m *Manager) finishUnit(p *Pilot, cu *ComputeUnit, s UnitState, err error) {
	now := m.cfg.Clock.Now()
	cu.mu.Lock()
	if cu.state.Terminal() {
		cu.mu.Unlock()
		return
	}
	cu.state = s
	cu.err = err
	cu.ended = now
	cu.mu.Unlock()
	cu.done.Fire()
	m.notify(cu, s)

	m.mu.Lock()
	m.planner.Forget(cu.id)
	m.activeUnits--
	idle := m.idle
	fire := m.activeUnits == 0
	m.mu.Unlock()
	if fire {
		idle.Fire()
	}
}

// ---------------------------------------------------------------------------
// Drift reconciliation
// ---------------------------------------------------------------------------

// reconcileLoop periodically compares desired vs actual state and applies
// corrections. While the manager has neither live pilots nor active units
// it parks without a deadline, so an idle manager adds no timeline events.
func (m *Manager) reconcileLoop() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		busy := m.activeUnits > 0
		if !busy {
			for _, p := range m.pilots {
				if !p.State().Terminal() {
					busy = true
					break
				}
			}
		}
		m.mu.Unlock()
		if !busy {
			if !m.reconKick.Wait(m.ctx) {
				return
			}
			continue
		}
		if !m.cfg.Clock.Sleep(m.ctx, m.cfg.ReconcileEvery) {
			return
		}
		m.ReconcileOnce()
	}
}

// ReconcileOnce runs one desired-vs-actual scan and corrects every drift
// confirmed by two consecutive scans (plan.Reconciler's anti-flap rule).
// It returns the corrections applied, in deterministic order.
//
// The desired-state snapshot lists only the bound units: plan.DetectDrift
// treats a unit missing from it exactly like a terminal or unbound one.
// The scan walks the non-terminal units, reading every unit's state
// (a pending unit's may have drifted), and drops the units that have
// turned terminal, so its cost follows the live units, not every unit
// ever submitted.
func (m *Manager) ReconcileOnce() []plan.Drift {
	m.mu.Lock()
	var units []plan.UnitStatus // bound units only: usually far fewer than live
	live := m.live[:0]
	for _, u := range m.live {
		u.mu.Lock()
		state, pilot := u.state, u.pilot
		u.mu.Unlock()
		if state.Terminal() {
			continue
		}
		live = append(live, u)
		if pilot != nil && (state == UnitScheduled || state == UnitStaging || state == UnitRunning) {
			units = append(units, plan.UnitStatus{ID: u.id, Bound: true, Started: state != UnitScheduled, Pilot: pilot.id})
		}
	}
	clear(m.live[len(live):])
	m.live = live
	pilots := make([]plan.PilotStatus, 0, len(m.pilots))
	for _, p := range m.pilots {
		p.mu.Lock()
		st := plan.PilotStatus{
			ID:       p.id,
			Running:  p.state == PilotRunning,
			Terminal: p.state.Terminal(),
		}
		for _, cu := range p.workQ {
			st.Units = append(st.Units, cu.id)
		}
		for cu := range p.running {
			st.Units = append(st.Units, cu.id)
		}
		p.mu.Unlock()
		sort.Strings(st.Units)
		st.Units = dedupSorted(st.Units)
		pilots = append(pilots, st)
	}
	confirmed := m.recon.Observe(units, pilots)
	m.mu.Unlock()

	var applied []plan.Drift
	for _, d := range confirmed {
		m.mu.Lock()
		cu := m.unitByID[d.Unit]
		p := m.pilotByID[d.Pilot]
		m.mu.Unlock()
		if p == nil {
			continue
		}
		if m.applyDrift(d, cu, p) {
			applied = append(applied, d)
		}
	}
	return applied
}

// applyDrift corrects one confirmed drift, rechecking that it still holds
// under the object locks. Reports whether a correction was applied.
func (m *Manager) applyDrift(d plan.Drift, cu *ComputeUnit, p *Pilot) bool {
	switch d.Class {
	case plan.DriftOrphan:
		// The agent holds a unit the control plane no longer binds there:
		// release the reservation and drop it from the work queue.
		if cu == nil {
			return false
		}
		cu.mu.Lock()
		stillBound := !cu.state.Terminal() && cu.pilot == p
		cu.mu.Unlock()
		if stillBound {
			return false
		}
		p.mu.Lock()
		freed := false
		if _, ok := p.running[cu]; ok {
			delete(p.running, cu)
			p.freeCores += cu.desc.Cores
			freed = true
		}
		for i, q := range p.workQ {
			if q == cu {
				p.workQ = append(p.workQ[:i], p.workQ[i+1:]...)
				freed = true
				break
			}
		}
		p.mu.Unlock()
		if freed {
			m.wake()
		}
		return freed

	case plan.DriftStateMismatch:
		// A live unit is bound to a terminal pilot: release its slot there
		// and route it through the planner's failure path.
		if cu == nil || !p.State().Terminal() {
			return false
		}
		cu.mu.Lock()
		mismatched := !cu.state.Terminal() && cu.pilot == p
		started := cu.state == UnitStaging || cu.state == UnitRunning
		cu.mu.Unlock()
		if !mismatched {
			return false
		}
		p.mu.Lock()
		if _, ok := p.running[cu]; ok {
			delete(p.running, cu)
			p.freeCores += cu.desc.Cores
		}
		for i, q := range p.workQ {
			if q == cu {
				p.workQ = append(p.workQ[:i], p.workQ[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
		class := plan.FailurePreStart
		if started {
			class = plan.FailureExecution
		}
		m.requeueOrFail(cu, class, fmt.Errorf("core: reconcile: unit bound to terminated pilot %s", p.id))
		return true

	default: // plan.DriftMissingOnAgent
		// A bound unit vanished from the agent's bookkeeping: restore the
		// reservation, and re-queue it with the agent if it had not
		// started executing.
		if cu == nil {
			return false
		}
		cu.mu.Lock()
		bound := !cu.state.Terminal() && cu.pilot == p
		scheduled := cu.state == UnitScheduled
		cu.mu.Unlock()
		if !bound {
			return false
		}
		p.mu.Lock()
		if p.state != PilotRunning {
			p.mu.Unlock()
			return false
		}
		if _, ok := p.running[cu]; ok {
			p.mu.Unlock()
			return false
		}
		for _, q := range p.workQ {
			if q == cu {
				p.mu.Unlock()
				return false
			}
		}
		p.running[cu] = struct{}{}
		p.freeCores -= cu.desc.Cores
		if scheduled {
			p.workQ = append(p.workQ, cu)
		}
		p.mu.Unlock()
		if scheduled {
			p.workN.Set()
		}
		return true
	}
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func (u *ComputeUnit) isCancelled() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.cancelled
}

func (u *ComputeUnit) setState(s UnitState) {
	u.mu.Lock()
	u.state = s
	u.mu.Unlock()
}

func (p *Pilot) allocation() infra.Allocation {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alloc
}
