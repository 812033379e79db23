GO ?= go

.PHONY: build test race vet loc bench bench-compare profile seed-audit doc-audit chaos test-federation ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Lines of Go in the tracked files of the root module (perfbench/ is its
# own module), non-test and test code counted apart: the LoC figure that
# ROADMAP.md and every change report quote.
loc:
	@printf 'non-test %s\ntest %s\n' \
		"$$(git ls-files '*.go' ':!:perfbench' | grep -v '_test\.go$$' | xargs cat | wc -l)" \
		"$$(git ls-files '*.go' ':!:perfbench' | grep '_test\.go$$' | xargs cat | wc -l)"

# One iteration per exhibit: checks the benchmarks run end to end and
# prints the per-exhibit wall times and allocations (compare against
# BENCH_baseline.json).
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' .

# Gate against BENCH_baseline.json: three iterations per exhibit, fail on
# >10% sustained regression (25ms absolute floor for time; for the
# streaming exhibits listed in allocs_per_op, also on allocs/op growth).
bench-compare:
	bash -o pipefail -c "$(GO) test -bench=. -benchtime=3x -benchmem -run '^$$' . | $(GO) run ./cmd/benchcompare"

# Profile harness for the two long-pole exhibits: cpu+mem profile pairs
# under profiles/ (gitignored), one pair per benchmark. Inspect with e.g.
#   go tool pprof -top profiles/streaming_million.cpu.pprof
# The test binary lands next to the profiles so pprof can resolve symbols
# without rebuilding.
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkStreaming_Million$$' -benchtime 3x -benchmem \
		-cpuprofile $(PROFILE_DIR)/streaming_million.cpu.pprof \
		-memprofile $(PROFILE_DIR)/streaming_million.mem.pprof \
		-o $(PROFILE_DIR)/gopilot.test .
	$(GO) test -run '^$$' -bench '^BenchmarkTable2_MapReduce$$' -benchtime 3x -benchmem \
		-cpuprofile $(PROFILE_DIR)/mapreduce.cpu.pprof \
		-memprofile $(PROFILE_DIR)/mapreduce.mem.pprof \
		-o $(PROFILE_DIR)/gopilot.test .

# Seeding-spine lint: no math/rand and no raw integer seeds outside
# internal/dist; stream roots only where experiments are born; no clock
# reads, stream draws or data-service calls inside Compute closures; no
# sleeps, timers or clocks inside the internal/plan control plane.
seed-audit:
	bash tools/seed-audit.sh

# Documentation lint: every package carries a real package comment.
doc-audit:
	$(GO) run ./cmd/doclint .

# Chaos fuzz: run CHAOS_SEEDS random-seed chaos scenarios (starting at
# CHAOS_SEED0) against the invariant suite. On a violation the reproducing
# seed and a ready-to-paste `chaosreplay -seed N -bisect` command are
# printed and the target fails. Fully deterministic: a seed that fails
# here fails identically everywhere.
CHAOS_SEEDS ?= 20
CHAOS_SEED0 ?= 0
chaos:
	$(GO) run ./cmd/chaosreplay -fuzz $(CHAOS_SEEDS) -seed0 $(CHAOS_SEED0) -v

# Federation suite under the race detector: shard placement planning,
# epoch-chain divergence math, cluster handoff/link-fence/retention
# behavior, replication catch-up and divergence repair (plus the
# 10-seed replication-fault property test), offset-persistence
# restarts, the retention property test, the rehomed E13 exhibit, the
# stale-handoff chaos acceptance test, and the single-shard data-plane
# tests (round-trip, ordering, round-robin and deterministic key-less
# placement, long-poll wake, segment boundaries, view stability,
# latency charged once, backpressure, partial-batch results).
test-federation:
	$(GO) test -race -count=1 \
		-run 'TestShardReplicas|TestRecruitShard|TestDetectShardDrift|TestDivergence|TestClassifyReplica|TestCluster|TestFetch|TestRetentionBound|TestReplication|TestStaleHandoffBug|TestOffsetStore|TestGroupRestart|TestRestartRedelivers|TestMillionMessages|TestChaosCatchesStaleHandoffBug|TestPublish|TestPerPartitionOrdering|TestKeyless|TestCanceledBackpressure' \
		./internal/plan/ ./internal/streaming/ ./internal/experiments/

ci: build vet seed-audit doc-audit test race bench-compare
