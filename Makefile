# Targets mirror .github/workflows/ci.yml exactly: `make ci` locally is
# the same bar the PR gate applies.

GO ?= go

.PHONY: all build test test-serial test-hot bench bench-json bench-compare profile scale-smoke serve-bench obs-smoke chaos-smoke lint ci

all: build

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test -race ./...

# The tier-1 tests again under GOMAXPROCS=1: the parallel cycle engine
# must be bit-identical at any worker count AND on any scheduler — a
# commit phase that accidentally depended on goroutine scheduling order
# would show up as a diff between this pass and the default one.
test-serial:
	GOMAXPROCS=1 $(GO) test -count=1 ./...

# An explicit, uncached race pass over the concurrency-heavy packages:
# the sharded scheduler / live clusters, both transports, and the
# simulator's parallel cycle engine (worker-count invariance + the
# N=10,000 parallel run). `make test` covers them too, but this target
# re-executes them even when cached — interleavings differ run to run,
# so caching hides races.
test-hot:
	$(GO) test -race -count=1 ./internal/runtime/... ./internal/transport/...
	$(GO) test -race -count=1 -run 'TestWorkerCountInvariance|TestParallelEngineAtScale' ./internal/sim

# One iteration per benchmark: a smoke pass that proves they still run.
# -short skips the n=1,000,000 EngineScaling rows — the million-node
# tier is exercised by scale-smoke and the scale-1m sweep instead of
# paying twelve 2 GB engine constructions here.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...

# A small sweep over the full scenario catalog via slicebench: every
# registered scenario must smoke-run, and the per-run wall time and
# cycles/sec land in BENCH_sweep.json (CI uploads it as an artifact).
# The scale-* family additionally runs at FULL scale — N=10k/50k/100k
# plus the million-node tier (scale-1m, ~1.9 GB of engine state), one
# run at a time. The engine runs serial here (-simworkers 1): the CI
# box has one core, where worker goroutines only add handoff overhead,
# and results are bit-identical at any worker count — the parallel path
# is pinned by TestWorkerCountInvariance and the equivalence suite, not
# by this sweep. BENCH_scale.json tracks the engine's cycles/sec
# (per-phase wall split included) as a function of N
# from build to build, with per-run memory budgets (arena/state/staging
# bytes per node) recorded alongside timing. The four raw files then
# consolidate into
# BENCH_summary.json (scenario → finalSDM, cyclesPerSec, backend): one
# stable cross-PR shape that `slicebench compare` can diff between
# builds to gate perf regressions.
bench-json:
	$(GO) run ./cmd/slicebench sweep -scenarios all -scale 0.01 -workers 4 \
		-out BENCH_sweep.json -quiet
	@echo "wrote BENCH_sweep.json"
	$(GO) run ./cmd/slicebench sweep -scenarios scale-10k,scale-50k,scale-100k,scale-1m \
		-workers 1 -simworkers 1 -out BENCH_scale.json -quiet
	@echo "wrote BENCH_scale.json"
	$(GO) run ./cmd/slicebench sweep -backend live -scale 0.1 -workers 2 \
		-out BENCH_live.json -quiet
	@echo "wrote BENCH_live.json"
	$(GO) run ./cmd/slicebench sweep -backend live -scenarios live-scale-10k \
		-workers 1 -out BENCH_live10k.json -quiet
	@echo "wrote BENCH_live10k.json (n=10,000 live convergence run)"
	$(GO) run ./cmd/slicebench summarize BENCH_sweep.json BENCH_scale.json \
		BENCH_live.json BENCH_live10k.json -out BENCH_summary.json
	@echo "wrote BENCH_summary.json (consolidated cross-PR benchmark shape)"

# The perf regression gate: diff the fresh BENCH_summary.json against
# the blessed baseline checked into the repo. Fails when the MEDIAN
# cycles/sec drop across the gated runs exceeds 15% — a code regression
# slows most runs, while shared-runner noise swings individual runs
# both directions — or when any run (of any size) silently vanishes
# from the artifact. Only runs with >=1s baseline wall time are gated:
# the sub-second catalog smoke runs execute 4-wide on shared CPUs,
# where per-run wall time is pure scheduling noise. Per-run deltas stay
# in the table for human eyes. Bless an intentional slowdown with
# `cp BENCH_summary.json BENCH_baseline.json` and commit the diff.
bench-compare:
	$(GO) run ./cmd/slicebench compare BENCH_baseline.json BENCH_summary.json \
		-fail-above 15 -min-wall-ms 1000

# Profile a scenario's hot loop: capture CPU + heap profiles of one run
# (defaults: the N=100k scale family, 10 cycles, serial engine — the
# same kernel mix the scale sweep gates) and print the top-20 flat CPU
# report. Override with PROFILE_SPEC / PROFILE_CYCLES /
# PROFILE_SIMWORKERS; PROFILE_SPEC takes a scenario or one spec of it
# as scenario/spec, e.g.
#   make profile PROFILE_SPEC=scale-1m PROFILE_CYCLES=5
# or, for the ranking protocol phase under churn on the parallel
# engine (the benchmark's sim-ranking-churn-100k shape):
#   make profile PROFILE_SPEC=scale-100k/ranking-churn PROFILE_CYCLES=20 PROFILE_SIMWORKERS=2
# cpu.prof / mem.prof land in the working tree (gitignored) so CI can
# upload them as on-demand artifacts; drill past the flat report with
# `go tool pprof cpu.prof`.
PROFILE_SPEC ?= scale-100k
PROFILE_CYCLES ?= 10
PROFILE_SIMWORKERS ?= 1
profile:
	$(GO) run ./cmd/slicebench run $(PROFILE_SPEC) -cycles $(PROFILE_CYCLES) \
		-simworkers $(PROFILE_SIMWORKERS) -cpuprofile cpu.prof -memprofile mem.prof \
		-format csv
	$(GO) tool pprof -top -nodecount=20 cpu.prof

# The million-node memory gate: run the scale-1m family at a reduced
# cycle count — enough to build the 1M-slot arena, run the parallel
# rounds and churn, not enough to wait for convergence — under a hard
# GOMEMLIMIT ceiling, and print each engine's audited memory budget
# (-memstats: arena/state/staging split and bytes/node). A per-node
# regression that slipped past the unit tests (a stray map, a pointer
# field, an unpooled buffer) either blows the bytes/node line or drives
# the runtime into the memory limit; both fail loudly here rather than
# silently on a researcher's machine.
scale-smoke:
	GOMEMLIMIT=6GiB $(GO) run ./cmd/slicebench run scale-1m -cycles 2 \
		-simworkers 4 -memstats -format csv

# Load-test the query plane: materialize the serving scenario family as
# real 1k-node clusters, hammer their HTTP endpoints with concurrent
# clients, and record qps / p50 / p99 / staleness bounds. Deliberately
# a separate artifact from BENCH_summary.json: serving latency is load-
# generator noise as far as the engine-throughput gate is concerned.
serve-bench:
	$(GO) run ./cmd/slicebench serve-bench -scenario serving \
		-out BENCH_serving.json
	@echo "wrote BENCH_serving.json (query-plane load benchmark)"

# The observability smoke: stand a served, instrumented cluster up
# end-to-end and scrape it — /metrics must parse as valid Prometheus
# text format and carry every golden live-plane family, /debug/trace
# must dump recorded events (TestMetricsEndToEnd) — then run a live
# scenario under tracing and keep the protocol trace dump as a build
# artifact (TRACE_sample.json: every view exchange, swap and boundary
# crossing of the run, scrapeable offline with jq).
obs-smoke:
	$(GO) test -count=1 -run 'TestMetricsEndToEnd|TestMetricNames' .
	$(GO) run ./cmd/slicebench trace livecluster -out TRACE_sample.json
	@echo "wrote TRACE_sample.json (protocol trace artifact)"

# The chaos gate: run the adversarial scenario families (drift,
# byzantine, partition/heal, message chaos) at scale 0.1 on BOTH
# backends and keep the results as BENCH_chaos.json, then enforce the
# recovery contract under the race detector — disorder must re-converge
# within a stated cycle budget after a partition heals, and top-slice
# pollution must stay under its bound at a 10% liar fraction
# (TestChaosRecoveryGates pins the exact numbers).
chaos-smoke:
	$(GO) run ./cmd/slicebench sweep -family chaos -scale 0.1 -workers 2 \
		-out BENCH_chaos_sim.json -quiet
	$(GO) run ./cmd/slicebench sweep -family chaos -scale 0.1 -backend live \
		-workers 2 -out BENCH_chaos_live.json -quiet
	$(GO) run ./cmd/slicebench summarize BENCH_chaos_sim.json BENCH_chaos_live.json \
		-out BENCH_chaos.json
	@echo "wrote BENCH_chaos.json (adversarial-family sweep, both backends)"
	$(GO) test -race -count=1 -run 'TestChaosRecoveryGates|TestPartitionHealDeterministic' \
		./internal/scenario ./internal/runtime

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

ci: lint build test test-serial test-hot bench bench-json bench-compare scale-smoke serve-bench obs-smoke chaos-smoke
