package data

import (
	"context"
	"errors"
	"testing"
	"time"

	"gopilot/internal/infra"
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

func newSvc(t *testing.T) *Service {
	t.Helper()
	s := NewService(Config{
		Clock:          fastClock(t),
		LocalBandwidth: 500e6,
		DefaultLink:    Link{Bandwidth: 12.5e6, Latency: 50 * time.Millisecond},
	})
	s.AddSite("siteA")
	s.AddSite("siteB")
	return s
}

func TestPutLocateSize(t *testing.T) {
	s := newSvc(t)
	if err := s.Put(context.Background(), Unit{ID: "d1", Content: []byte("hello"), Site: "siteA"}); err != nil {
		t.Fatal(err)
	}
	sites, ok := s.Locate("d1")
	if !ok || len(sites) != 1 || sites[0] != "siteA" {
		t.Fatalf("Locate = %v %v", sites, ok)
	}
	size, ok := s.Size("d1")
	if !ok || size != 5 {
		t.Fatalf("Size = %d %v, want 5", size, ok)
	}
}

func TestLogicalSizeOverridesContentLength(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "big", Content: []byte("x"), LogicalSize: 1 << 30, Site: "siteA"})
	size, _ := s.Size("big")
	if size != 1<<30 {
		t.Fatalf("Size = %d, want 1 GiB", size)
	}
}

func TestLocalReadIsCheapRemoteReadPaysTransfer(t *testing.T) {
	clock := fastClock(t)
	s := NewService(Config{Clock: clock, LocalBandwidth: 500e6, DefaultLink: Link{Bandwidth: 12.5e6, Latency: 100 * time.Millisecond}})
	// 125 MB logical: local ≈ 0.25s, remote ≈ 10s + latency.
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("payload"), LogicalSize: 125e6, Site: "siteA"})

	t0 := clock.Now()
	if _, err := s.Read(context.Background(), "d", "siteA"); err != nil {
		t.Fatal(err)
	}
	localCost := clock.Since(t0)

	t1 := clock.Now()
	content, err := s.Read(context.Background(), "d", "siteB")
	if err != nil {
		t.Fatal(err)
	}
	remoteCost := clock.Since(t1)

	if string(content) != "payload" {
		t.Errorf("content = %q", content)
	}
	if remoteCost < 4*localCost {
		t.Errorf("remote read %v not ≫ local read %v", remoteCost, localCost)
	}
	st := s.Stats()
	if st.LocalReads != 1 || st.RemoteReads != 1 {
		t.Errorf("stats = %+v, want 1 local / 1 remote", st)
	}
	if st.BytesMoved != 125e6 {
		t.Errorf("BytesMoved = %d, want 125e6", st.BytesMoved)
	}
}

func TestReadThroughDoesNotReplicate(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("x"), Site: "siteA"})
	s.Read(context.Background(), "d", "siteB")
	if n := s.Replicas("d"); n != 1 {
		t.Fatalf("replicas = %d, want 1 (read-through)", n)
	}
}

func TestStageInReplicates(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("x"), LogicalSize: 1e6, Site: "siteA"})
	if err := s.StageIn(context.Background(), "d", "siteB"); err != nil {
		t.Fatal(err)
	}
	if n := s.Replicas("d"); n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}
	sites, _ := s.Locate("d")
	if len(sites) != 2 {
		t.Fatalf("Locate = %v", sites)
	}
	// Second stage-in to the same site is free and idempotent.
	before := s.Stats().Replications
	s.StageIn(context.Background(), "d", "siteB")
	if s.Stats().Replications != before {
		t.Error("idempotent stage-in incremented replication count")
	}
}

func TestStageInUnknownUnit(t *testing.T) {
	s := newSvc(t)
	if err := s.StageIn(context.Background(), "nope", "siteA"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("err = %v, want ErrUnknownUnit", err)
	}
}

func TestReadUnknownUnit(t *testing.T) {
	s := newSvc(t)
	if _, err := s.Read(context.Background(), "nope", "siteA"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("err = %v, want ErrUnknownUnit", err)
	}
}

func TestWriteCreatesUnitAtSite(t *testing.T) {
	s := newSvc(t)
	if err := s.Write(context.Background(), "out", []byte("result"), "siteB"); err != nil {
		t.Fatal(err)
	}
	sites, ok := s.Locate("out")
	if !ok || sites[0] != "siteB" {
		t.Fatalf("Locate = %v %v", sites, ok)
	}
}

func TestCustomLinkUsed(t *testing.T) {
	clock := fastClock(t)
	s := NewService(Config{Clock: clock, LocalBandwidth: 1e9, DefaultLink: Link{Bandwidth: 1e6, Latency: time.Second}})
	// Fast dedicated link A→B: 1 GB at 1 GB/s ≈ 1s modeled, versus ≈1000s
	// over the 1 MB/s default link.
	s.SetLink("siteA", "siteB", Link{Bandwidth: 1e9, Latency: time.Millisecond})
	s.Put(context.Background(), Unit{ID: "d", LogicalSize: 1e9, Site: "siteA"})
	t0 := clock.Now()
	if err := s.StageIn(context.Background(), "d", "siteB"); err != nil {
		t.Fatal(err)
	}
	if cost := clock.Since(t0); cost > 30*time.Second {
		t.Errorf("transfer over fast link took %v, want ≈1s", cost)
	}
}

func TestRemove(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("x"), Site: "siteA"})
	s.Remove("d")
	if _, ok := s.Locate("d"); ok {
		t.Fatal("unit still located after Remove")
	}
}

func TestPutValidation(t *testing.T) {
	s := newSvc(t)
	if err := s.Put(context.Background(), Unit{Site: "siteA"}); err == nil {
		t.Error("missing ID accepted")
	}
	if err := s.Put(context.Background(), Unit{ID: "x"}); err == nil {
		t.Error("missing site accepted")
	}
}

func TestResetStats(t *testing.T) {
	s := newSvc(t)
	s.Put(context.Background(), Unit{ID: "d", Content: []byte("x"), Site: "siteA"})
	s.Read(context.Background(), "d", "siteA")
	s.ResetStats()
	if st := s.Stats(); st.LocalReads != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestStageInCanceled(t *testing.T) {
	clock := fastClock(t)
	s := NewService(Config{Clock: clock, DefaultLink: Link{Bandwidth: 1, Latency: 0}}) // absurdly slow
	s.Put(context.Background(), Unit{ID: "d", LogicalSize: 1e9, Site: "siteA"})
	ctx, cancel := context.WithCancel(context.Background())
	clock.Go(func() {
		clock.Sleep(context.Background(), time.Second)
		cancel()
	})
	if err := s.StageIn(ctx, "d", "siteB"); err == nil {
		t.Fatal("expected cancellation")
	}
	if s.Replicas("d") != 1 {
		t.Fatal("canceled transfer created replica")
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	clock := fastClock(t)
	s := NewService(Config{Clock: clock})
	s.AddSite("siteA")
	s.AddSite("siteB")
	wg := vclock.NewGroup(clock)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := "d" + string(rune('a'+g))
				s.Put(context.Background(), Unit{ID: id, Content: []byte("x"), Site: "siteA"})
				s.Read(context.Background(), id, "siteA")
				s.StageIn(context.Background(), id, "siteB")
				s.Locate(id)
			}
		})
	}
	wg.Wait()
}

func TestSiteConstant(t *testing.T) {
	if infra.Site("siteA") != infra.Site("siteA") {
		t.Fatal("site identity broken")
	}
}
