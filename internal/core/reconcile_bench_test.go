package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

// BenchmarkReconcileOnce measures one drift scan of a manager holding 128
// running units and N finished ones. The scan before the timer starts
// drops the finished units from the manager's live list (each finished
// unit is scanned once more after it ends); every timed scan then costs
// the live units, whatever N is.
func BenchmarkReconcileOnce(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("finished=%d", n), func(b *testing.B) {
			clock := vclock.NewVirtual(vclock.Epoch)
			clock.Adopt()
			defer clock.Leave()
			reg := saga.NewRegistry()
			reg.Register(saga.NewLocalService("box", 128, clock))
			mgr := NewManager(Config{Registry: reg, Clock: clock, Stream: dist.NewStream(1)})
			defer mgr.Close()
			ctx := context.Background()
			p, err := mgr.SubmitPilot(PilotDescription{Name: "p", Resource: "local://box", Cores: 128})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.WaitRunning(ctx); err != nil {
				b.Fatal(err)
			}
			finished := make([]UnitDescription, n)
			for i := range finished {
				finished[i] = UnitDescription{Name: "done", Run: func(context.Context, TaskContext) error { return nil }}
			}
			if _, err := mgr.SubmitUnits(finished); err != nil {
				b.Fatal(err)
			}
			if err := mgr.WaitAll(ctx); err != nil {
				b.Fatal(err)
			}
			running := make([]UnitDescription, 128)
			for i := range running {
				running[i] = UnitDescription{Name: "run", Run: func(ctx context.Context, tc TaskContext) error {
					tc.Sleep(ctx, 1000*time.Hour)
					return ctx.Err()
				}}
			}
			if _, err := mgr.SubmitUnits(running); err != nil {
				b.Fatal(err)
			}
			clock.Sleep(ctx, time.Second)
			if got := p.RunningUnits(); got != 128 {
				b.Fatalf("pilot runs %d units, want 128", got)
			}
			if d := mgr.ReconcileOnce(); len(d) != 0 {
				b.Fatalf("clean world corrected drift: %v", d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr.ReconcileOnce()
			}
		})
	}
}
