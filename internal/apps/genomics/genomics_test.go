package genomics

import (
	"context"
	"strings"
	"testing"
	"time"

	"gopilot/internal/dist"

	"gopilot/internal/core"
	"gopilot/internal/data"
	"gopilot/internal/saga"
	"gopilot/internal/vclock"
)

func TestGenerateReference(t *testing.T) {
	ref := GenerateReference(1000, dist.NewStream(1))
	if len(ref) != 1000 {
		t.Fatalf("len = %d", len(ref))
	}
	for _, c := range ref {
		if !strings.ContainsRune("ACGT", c) {
			t.Fatalf("bad base %q", c)
		}
	}
	if ref != GenerateReference(1000, dist.NewStream(1)) {
		t.Fatal("not reproducible")
	}
}

func TestSampleReadsComeFromReference(t *testing.T) {
	ref := GenerateReference(500, dist.NewStream(2))
	reads := SampleReads(ref, 20, 30, 0, dist.NewStream(3))
	for _, r := range reads {
		if len(r) != 30 {
			t.Fatalf("read length %d", len(r))
		}
		if !strings.Contains(ref, r) {
			t.Fatalf("unmutated read %q not found in reference", r)
		}
	}
}

func TestSWScoreKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"ACGT", "ACGT", 8},         // perfect match: 4×2
		{"AAAA", "TTTT", 0},         // nothing aligns locally
		{"ACGT", "TTACGTTT", 8},     // embedded match
		{"", "ACGT", 0},             // empty query
		{"ACGTACGT", "ACGACGT", 11}, // one deletion: 7 matches ×2 −2 gap... at least beats 10
	}
	for _, c := range cases[:4] {
		if got := SWScore(c.a, c.b); got != c.want {
			t.Errorf("SWScore(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := SWScore("ACGTACGT", "ACGACGT"); got < 10 {
		t.Errorf("gapped score = %d, want ≥ 10", got)
	}
}

func TestSWScoreSymmetric(t *testing.T) {
	a, b := "ACGTTGCA", "TGCAACGT"
	if SWScore(a, b) != SWScore(b, a) {
		t.Fatal("SW score not symmetric")
	}
}

func TestAlignReadFindsOrigin(t *testing.T) {
	ref := GenerateReference(2000, dist.NewStream(5))
	read := ref[700:750]
	score, offset := AlignRead(read, ref)
	if score != 2*len(read) {
		t.Fatalf("perfect read scored %d, want %d", score, 2*len(read))
	}
	// Window with 50% overlap: origin 700 must fall inside the best window.
	if offset > 700 || offset+2*len(read) < 750 {
		t.Fatalf("offset %d does not cover read origin 700", offset)
	}
}

func TestMutatedReadsStillAlign(t *testing.T) {
	ref := GenerateReference(1000, dist.NewStream(6))
	reads := SampleReads(ref, 10, 40, 0.05, dist.NewStream(7))
	for _, r := range reads {
		score, _ := AlignRead(r, ref)
		// 5% mutations: expect ≥ ~80% of max score.
		if score < 2*len(r)*6/10 {
			t.Errorf("mutated read scored %d of %d", score, 2*len(r))
		}
	}
}

func TestChunk(t *testing.T) {
	reads := make([]string, 10)
	chunks := Chunk(reads, 3)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 10 || len(chunks) != 3 {
		t.Fatalf("chunks = %d covering %d", len(chunks), total)
	}
}

func TestDistributedAlignment(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	t.Cleanup(clock.Leave)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("siteA", 8, clock))
	ds := data.NewService(data.Config{Clock: clock})
	ds.AddSite("siteA")
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Data: ds})
	defer mgr.Close()
	mgr.SubmitPilot(core.PilotDescription{Resource: "local://siteA", Cores: 4})

	ref := GenerateReference(800, dist.NewStream(9))
	reads := SampleReads(ref, 24, 30, 0.02, dist.NewStream(10))
	chunks := Chunk(reads, 4)
	refID, chunkIDs, err := StageInputs(context.Background(), ds, "siteA", ref, chunks, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, mgr, Config{ReferenceID: refID, ChunkIDs: chunkIDs, MinScore: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalReads != 24 {
		t.Fatalf("total reads = %d, want 24", res.TotalReads)
	}
	// 2% mutation, threshold 40 of 60: nearly all should align.
	if res.AlignedReads < 20 {
		t.Fatalf("aligned = %d of 24, want ≥ 20", res.AlignedReads)
	}
	if len(res.ChunkTimes) != 4 {
		t.Fatalf("chunk times = %d", len(res.ChunkTimes))
	}
}

func TestRunValidation(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	clock.Adopt()
	t.Cleanup(clock.Leave)
	reg := saga.NewRegistry()
	reg.Register(saga.NewLocalService("siteA", 2, clock))
	mgrNoData := core.NewManager(core.Config{Registry: reg, Clock: clock})
	defer mgrNoData.Close()
	if _, err := Run(context.Background(), mgrNoData, Config{ReferenceID: "r", ChunkIDs: []string{"c"}}); err == nil {
		t.Error("manager without data service accepted")
	}
	ds := data.NewService(data.Config{Clock: clock})
	mgr := core.NewManager(core.Config{Registry: reg, Clock: clock, Data: ds})
	defer mgr.Close()
	if _, err := Run(context.Background(), mgr, Config{}); err == nil {
		t.Error("empty config accepted")
	}
}
