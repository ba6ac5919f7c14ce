# Build/test entry points for the sensorfusion reproduction.
#
# `make ci` is the full gate: build every package, gofmt + vet + the
# documentation check, run the whole suite under the race detector, then
# run every benchmark once as a smoke test. The campaign engine's determinism and race-cleanliness
# are both exercised there (the equivalence tests run the engine with
# several worker counts concurrently), and the bench smoke keeps the
# benchmark harness itself compiling and passing its embedded claim
# checks (stealth invariants, never-smaller, 0 allocs/op sinks).

GO ?= go

# The dated benchmark record bench-json writes (one file per day; CI
# overwrites the day's file rather than accumulating per-run noise).
BENCH_JSON := BENCH_$(shell date +%Y-%m-%d).json

.PHONY: all build crosscompile fmt vet docs test race test-purego test-perfbench bench bench-kernels benchsmoke bench-json bench-diff scenarios fuzz-short chaos chaos-short profile ci

all: build

build:
	$(GO) build ./...

# Cross-compile smoke: the batch-kernel dispatch carries amd64-only
# assembly behind build tags, so the non-amd64 fallback (and the purego
# escape hatch on amd64 itself) must keep compiling even though CI runs
# on amd64. darwin and windows guard the coordinator's non-Linux lock
# liveness path (pid-only, no process start time). `go vet` in this
# Makefile covers asmdecl on the native build.
crosscompile:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	$(GO) build -tags purego ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# Documentation gate: the root facade must document every exported
# identifier, and every internal/cmd package must carry a package doc
# comment (internal/doccheck implements the go/doc walk).
docs:
	$(GO) run ./internal/doccheck .
	$(GO) run ./internal/doccheck -pkgdoc $$($(GO) list -f '{{.Dir}}' ./internal/... ./cmd/...)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The generic-only build (what arm64 ships, and -tags purego on amd64):
# the whole suite again with the assembly kernel compiled out, so the
# non-AVX2 batch path is tested, not just compiled.
test-purego:
	$(GO) test -tags purego ./...

# The end-to-end benchmark harness's own tests: every workload runs tiny
# and must print every metric, output checks must count corruption, and
# the ledger math must hold. perfbench is a separate module, so ./...
# skips it.
test-perfbench:
	cd perfbench && $(GO) test -count=1 .

# Headline benchmarks: hot-path fusion and results-sink allocs, campaign
# scaling.
bench:
	$(GO) test -bench 'BenchmarkFusePerCall' -benchmem ./internal/fusion/
	$(GO) test -bench 'BenchmarkResultsSink' -benchmem ./internal/results/
	$(GO) test -bench 'BenchmarkCampaignParallel' -benchtime 2x .

# Apples-to-apples kernel comparison: the batch benchmarks under both
# forced dispatch modes (SENSORFUSION_KERNEL overrides the CPU-detected
# default at process start; unavailable kernels are skipped by the env
# hook, so the avx2 row silently equals the default on older CPUs — use
# the printed kernel-tagged rows, not the mode label, when comparing).
bench-kernels:
	@for k in generic avx2; do \
		echo "=== SENSORFUSION_KERNEL=$$k ==="; \
		SENSORFUSION_KERNEL=$$k $(GO) test -run '^$$' \
			-bench 'BenchmarkSweeperFuseBatch|BenchmarkSweeperFuseScalar' \
			-benchmem -benchtime 200ms . || exit 1; \
	done

# One iteration of every benchmark in the repo: a cheap end-to-end smoke
# of the whole experiment harness.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Record the perf trajectory: run the headline benchmarks (hot-path
# fusion, the zero-alloc round engine, the attacked-expectation search,
# sink allocs, engine batching, bounded merge) and write the test2json
# event stream to a dated BENCH_<date>.json, so successive runs leave a
# comparable record instead of scrollback. -benchmem records allocs/op,
# which bench-diff gates against growth. -benchtime 100ms keeps the
# record cheap while giving the fast benchmarks enough iterations that
# the bench-diff time gate measures code, not single-iteration warmup
# noise; for publishable numbers raise it further.
BENCH_HEADLINE := BenchmarkResultsSink|BenchmarkCampaignParallel|BenchmarkCampaignBatched|BenchmarkBoundedMerge|BenchmarkRoundClean|BenchmarkExpectedWidthAttacked|BenchmarkSimulatedRound|BenchmarkAttackOptimal|BenchmarkSweeperFuse|BenchmarkScenarioFaultsStep

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_HEADLINE)' -benchmem -benchtime 100ms -json ./... > $(BENCH_JSON)
	@echo wrote $(BENCH_JSON)

# Benchmarks whose 0 allocs/op is a documented invariant, pinned
# ABSOLUTELY in the newest record (not merely "no growth"): the
# steady-state round engine, the attacker plan search (cached,
# uncached, and the full-knowledge row search), and the batched lane
# kernel (both widths). bench-diff
# fails if any of them reports a single allocation — or if the regexp
# stops matching (a rename must not unarm the pin).
BENCH_ZERO_ALLOC := BenchmarkRoundClean|BenchmarkAttackOptimalCached|BenchmarkAttackOptimalUncached|BenchmarkAttackOptimalFullKnowledge|BenchmarkSweeperFuseBatch

# Compare the newest BENCH_*.json against the previous one: fail on a
# >20% geomean ns/op regression, any allocs/op growth, or any
# $(BENCH_ZERO_ALLOC) benchmark allocating at all (see
# internal/benchdiff). With fewer than two records there is nothing to
# compare; the target still succeeds (so a fresh clone's `make ci` can
# pass) but SHOUTS that the regression gate did not run — a quiet skip
# here once hid an unarmed gate for weeks. The gate arms itself once a
# second day's record exists.
bench-diff:
	@set -- $$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -2); \
	if [ $$# -lt 2 ]; then \
		echo "bench-diff: *** SKIPPED *** need two BENCH_*.json records, have $$# — the perf-regression gate DID NOT RUN (run 'make bench-json' on a second day to arm it)" >&2; \
	else \
		$(GO) run ./internal/benchdiff -pin-zero-allocs '$(BENCH_ZERO_ALLOC)' "$$1" "$$2"; \
	fi

# Scenario verdict gate: run every case-study suite through the
# paper-claim verdict layer. Any FAIL verdict exits non-zero and fails
# the build; -steps 25 keeps the smoke under a second while still
# exercising every criterion (soundness, stealth, drift law, precision).
scenarios:
	$(GO) run ./cmd/repro scenarios -steps 25

# Short coverage-guided fuzzing of the seven fuzz targets (scenario
# config decoder, results JSONL round-trip, batch fusion equivalence,
# the in-place k=1 accumulation against per-world batch scoring, the
# full-knowledge row search against the batched plan search, the plan
# of a translated context against the translated plan, and the
# decision-grouped expectation against the round-by-round one), each
# seeded from a committed corpus. 5s per target keeps CI cheap;
# raise -fuzztime for a real hunt.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeScenario$$' -fuzztime 5s ./internal/verdict/
	$(GO) test -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime 5s ./internal/results/
	$(GO) test -run '^$$' -fuzz '^FuzzFuseBatch$$' -fuzztime 5s ./internal/fusion/
	$(GO) test -run '^$$' -fuzz '^FuzzScoreK1Runs$$' -fuzztime 5s ./internal/fusion/
	$(GO) test -run '^$$' -fuzz '^FuzzOptimalFullKnowledge$$' -fuzztime 5s ./internal/attack/
	$(GO) test -run '^$$' -fuzz '^FuzzOptimalShift$$' -fuzztime 5s ./internal/attack/
	$(GO) test -run '^$$' -fuzz '^FuzzGroupedExpectation$$' -fuzztime 5s ./internal/sim/

# Chaos soak: drive the coordinator through seeded deterministic fault
# schedules (torn/short writes, EIO/ENOSPC, manifest rename/fsync
# failures, killed and delayed workers, poisoned shards) and hold it to
# the harness's contracts — recoverable schedules heal to byte-identity
# with the serial run, unrecoverable ones degrade to a classified
# partial result a clean resume completes, and the same seed always
# reproduces the same outcome. 24 seeds each run twice, under the race
# detector. chaos-short is the CI arm: fewer seeds, plus the
# self-healing unit tests (classification, backoff, the LPT plan,
# speculation, lopsided-plan resume, partial) under -race.
chaos:
	CHAOS_SEEDS=24 $(GO) test ./internal/coordinator -race -run 'TestChaosSoak' -count=1

chaos-short:
	CHAOS_SEEDS=6 $(GO) test ./internal/coordinator -race -count=1 \
		-run 'TestChaosSoak|TestClassify|TestRetryDelay|TestLPTPartition|TestCoordinateSpeculation|TestCoordinateResumeLopsidedPlan|TestCoordinatePartialAndResume|TestCoordinateFollowTailsAcrossWorkerKill'

# Profile the hot path end to end: run a sampled campaign through the
# repro CLI with CPU and heap profiles enabled, then print the CPU
# top-10. Inspect interactively with `go tool pprof cpu.prof` (or
# mem.prof). PROFILE_ARGS overrides the campaign size/seed.
PROFILE_ARGS ?= -k 24 -seed 1
profile:
	$(GO) build -o repro.profile ./cmd/repro
	./repro.profile campaign $(PROFILE_ARGS) -cpuprofile cpu.prof -memprofile mem.prof >/dev/null
	$(GO) tool pprof -top -nodecount 10 cpu.prof
	@echo "profiles written: cpu.prof mem.prof (go tool pprof cpu.prof)"

ci: build crosscompile fmt vet docs race test-purego test-perfbench chaos-short scenarios fuzz-short benchsmoke bench-json bench-diff
