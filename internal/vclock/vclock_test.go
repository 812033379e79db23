package vclock

import (
	"context"
	"testing"
	"time"
)

func TestRealSleepRespectsContext(t *testing.T) {
	c := NewReal()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c.Sleep(ctx, time.Hour) {
		t.Fatal("Sleep returned true with canceled context")
	}
}

func TestRealSleepZero(t *testing.T) {
	c := NewReal()
	if !c.Sleep(context.Background(), 0) {
		t.Fatal("zero sleep should complete")
	}
}

func TestScaledSleepIsFaster(t *testing.T) {
	c := NewScaled(1000)
	start := time.Now()
	if !c.Sleep(context.Background(), 2*time.Second) {
		t.Fatal("Sleep failed")
	}
	wall := time.Since(start)
	if wall > 500*time.Millisecond {
		t.Fatalf("2s modeled sleep took %v wall time at factor 1000", wall)
	}
}

func TestScaledNowAdvancesByFactor(t *testing.T) {
	c := NewScaled(1000)
	t0 := c.Now()
	time.Sleep(10 * time.Millisecond)
	elapsed := c.Since(t0)
	// 10ms wall at factor 1000 ≈ 10 modeled seconds; allow generous slack.
	if elapsed < 5*time.Second || elapsed > 60*time.Second {
		t.Fatalf("modeled elapsed = %v, want ≈10s", elapsed)
	}
}

func TestScaledFactorClamped(t *testing.T) {
	c := NewScaled(0.5)
	if c.Factor() != 1 {
		t.Fatalf("Factor = %g, want clamp to 1", c.Factor())
	}
}
