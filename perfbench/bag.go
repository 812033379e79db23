package main

import (
	"context"
	"fmt"
	"time"

	"gopilot/internal/core"
	"gopilot/internal/dist"
	"gopilot/internal/infra/htc"
	"gopilot/internal/saga"
)

// bagShape sizes the late-binding bag-of-tasks workload.
type bagShape struct {
	units int
	// meanTask is the mean modeled unit runtime (lognormal, cv 0.5).
	meanTask time.Duration
}

var bagDefault = bagShape{units: 3000, meanTask: 30 * time.Second}

// bagMaxRetries is each unit's retry budget: a unit can lose at most one
// attempt to the evicted pilot and one to the expiring pilot, so this
// leaves headroom and every unit must still end Done.
const bagMaxRetries = 3

func setupBag(_ context.Context, seed int64, sh bagShape, tr *tracer, _ options) (*env, error) {
	tb := newTestbed(seed, tr)
	// An opportunistic pool whose glideins are reclaimed by their owners:
	// the pilot placed there is evicted part-way through its walltime.
	condorStream := tb.Root.Named("infra/htc/condor")
	condor := htc.New(htc.Config{
		Name: "condor", Slots: 64,
		MatchDelay:   dist.LogNormalFrom(condorStream.Named("match-delay"), 15, 0.5),
		EvictionRate: 0.1,
		Clock:        tb.Clock, Stream: condorStream,
	})
	tb.Registry.Register(saga.NewHTCService(condor, tb.Clock))
	mgr := tb.NewManager(nil)
	closeAll := func() {
		mgr.Close()
		condor.Shutdown()
		tb.Close()
	}
	pilots := []core.PilotDescription{
		{Name: "hpc", Resource: "hpc://stampede", Cores: 64, Walltime: 12 * time.Hour},
		// Eviction lands within the first half of the walltime.
		{Name: "htc", Resource: "htc://condor", Cores: 32, Walltime: 20 * time.Minute},
		// This walltime ends well before the bag does: its running units
		// are lost and requeued with backoff.
		{Name: "cloud", Resource: "cloud://ec2", Cores: 32, Walltime: 8 * time.Minute},
	}
	for _, d := range pilots {
		if _, err := mgr.SubmitPilot(d); err != nil {
			closeAll()
			return nil, err
		}
	}

	pr := newProbe(sh.units)
	runtimes := dist.LogNormalFrom(tb.Root.Named("bench", "bag"), sh.meanTask.Seconds(), 0.5)
	descs := make([]core.UnitDescription, sh.units)
	for i := range descs {
		d := time.Duration(runtimes.Sample() * float64(time.Second))
		descs[i] = core.UnitDescription{
			Name:       fmt.Sprintf("task-%d", i),
			Cores:      1,
			MaxRetries: bagMaxRetries,
			Run: func(ctx context.Context, tc core.TaskContext) error {
				if !tc.Sleep(ctx, d) {
					return ctx.Err()
				}
				pr.add(1)
				return nil
			},
		}
	}
	if tr != nil {
		pr.gauge = tr.gauges(mgr)
	}
	run := func(ctx context.Context) (outcome, error) { return runBag(ctx, tb.Virtual.Now, mgr, descs, tr) }
	return &env{v: tb.Virtual, items: sh.units, probe: pr, run: run, close: closeAll}, nil
}

func runBag(ctx context.Context, now func() time.Time, mgr *core.Manager, descs []core.UnitDescription, tr *tracer) (outcome, error) {
	var w0, m0 time.Time
	if tr != nil {
		w0, m0 = tr.begin()
	}
	units, err := mgr.SubmitUnits(descs)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		tr.end(opSubmit, len(units), w0, m0)
	}
	if err := mgr.WaitAll(ctx); err != nil {
		return outcome{}, err
	}

	// Every unit Done within its retry budget.
	f := newFingerprint()
	f.at(now())
	failed := 0
	for _, u := range units {
		s, a := u.State(), u.Attempts()
		if s != core.UnitDone || a > bagMaxRetries+1 {
			failed++
		}
		f.i64(int64(s))
		f.i64(int64(a))
		f.at(u.EndTime())
		if p := u.Pilot(); p != nil {
			f.str(p.ID())
		}
	}
	out := outcome{attempted: len(units), failed: failed, fp: f}
	if tr != nil {
		sub := tr.stats(opSubmit)
		out.layers = map[string]float64{
			"core.submit_ms":         float64(sub.wall) / 1e6,
			"core.attempts_per_unit": attemptsPerUnit(mgr),
		}
	}
	return out, nil
}
