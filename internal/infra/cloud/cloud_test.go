package cloud

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/dist"
	"gopilot/internal/vclock"
)

// fastClock returns a virtual clock with the test goroutine adopted as a
// participant until the test ends.
func fastClock(t *testing.T) *vclock.Virtual {
	v := vclock.NewVirtual(vclock.Epoch)
	v.Adopt()
	t.Cleanup(v.Leave)
	return v
}

func testConfig(clock vclock.Clock) Config {
	return Config{
		Name: "ec2",
		Types: []VMType{
			{Name: "small", Cores: 2, PricePerHour: 0.1},
			{Name: "large", Cores: 8, PricePerHour: 0.4},
		},
		BootDelay: dist.Constant(5),
		Clock:     clock,
	}
}

func TestProvisionBootsVMs(t *testing.T) {
	clock := fastClock(t)
	p := New(testConfig(clock))
	defer p.Shutdown()
	start := clock.Now()
	vms, err := p.Provision(context.Background(), 3, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 3 {
		t.Fatalf("got %d VMs, want 3", len(vms))
	}
	for _, vm := range vms {
		if vm.State() != Ready {
			t.Errorf("vm %s state = %v, want Ready", vm.ID(), vm.State())
		}
		if vm.Type().Name != "small" {
			t.Errorf("vm type = %q, want small", vm.Type().Name)
		}
	}
	if boot := clock.Since(start); boot < 4*time.Second {
		t.Errorf("boot took %v modeled, want ≈5s", boot)
	}
	if p.ActiveVMs() != 3 {
		t.Errorf("ActiveVMs = %d, want 3", p.ActiveVMs())
	}
}

func TestAllocationAggregatesCores(t *testing.T) {
	clock := fastClock(t)
	p := New(testConfig(clock))
	defer p.Shutdown()
	vms, _ := p.Provision(context.Background(), 2, "large")
	alloc := p.Allocation("x", vms)
	if alloc.Cores != 16 {
		t.Errorf("Cores = %d, want 16", alloc.Cores)
	}
	if len(alloc.Nodes) != 2 {
		t.Errorf("Nodes = %d, want 2", len(alloc.Nodes))
	}
	if alloc.Site != p.Site() {
		t.Errorf("Site = %q, want %q", alloc.Site, p.Site())
	}
}

func TestTerminateAccumulatesCost(t *testing.T) {
	clock := fastClock(t)
	p := New(testConfig(clock))
	defer p.Shutdown()
	vms, _ := p.Provision(context.Background(), 1, "large")
	clock.Sleep(context.Background(), 30*time.Second)
	p.Terminate(vms)
	if p.ActiveVMs() != 0 {
		t.Errorf("ActiveVMs = %d, want 0", p.ActiveVMs())
	}
	cost := p.Cost()
	if cost <= 0 {
		t.Fatalf("cost = %g, want > 0", cost)
	}
	// ~30 modeled seconds at 0.4/h ≈ 0.0033; allow broad band for timer slack.
	if cost > 0.05 {
		t.Errorf("cost = %g, implausibly high", cost)
	}
	if vms[0].State() != Terminated {
		t.Errorf("state = %v, want Terminated", vms[0].State())
	}
}

func TestQuotaEnforced(t *testing.T) {
	clock := fastClock(t)
	cfg := testConfig(clock)
	cfg.CapacityVMs = 2
	p := New(cfg)
	defer p.Shutdown()
	if _, err := p.Provision(context.Background(), 3, "small"); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", err)
	}
	vms, err := p.Provision(context.Background(), 2, "small")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Provision(context.Background(), 1, "small"); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota for incremental request", err)
	}
	p.Terminate(vms)
	if _, err := p.Provision(context.Background(), 1, "small"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestUnknownType(t *testing.T) {
	p := New(testConfig(fastClock(t)))
	defer p.Shutdown()
	if _, err := p.Provision(context.Background(), 1, "gpu.mega"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestProvisionCanceled(t *testing.T) {
	clock := fastClock(t)
	cfg := testConfig(clock)
	cfg.BootDelay = dist.Constant(3600)
	p := New(cfg)
	defer p.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	clock.Go(func() {
		clock.Sleep(context.Background(), time.Second)
		cancel()
	})
	if _, err := p.Provision(ctx, 1, ""); err == nil {
		t.Fatal("expected cancellation error")
	}
	if p.ActiveVMs() != 0 {
		t.Errorf("ActiveVMs = %d after canceled provision, want 0", p.ActiveVMs())
	}
}

func TestShutdownRejects(t *testing.T) {
	p := New(testConfig(fastClock(t)))
	p.Shutdown()
	if _, err := p.Provision(context.Background(), 1, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDefaultTypeUsed(t *testing.T) {
	p := New(testConfig(fastClock(t)))
	defer p.Shutdown()
	vms, err := p.Provision(context.Background(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if vms[0].Type().Name != "small" {
		t.Errorf("default type = %q, want small", vms[0].Type().Name)
	}
}
