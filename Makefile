GO ?= go

.PHONY: all build test vet race race-all bench fuzz torture soak staticcheck obs-bench race-parallel sql-smoke chaos-smoke explain-smoke check

# Torture-harness knobs (see internal/torture): the seed and op count
# for the differential run, overridable per invocation:
#   make torture TORTURE_SEED=42 TORTURE_OPS=5000
TORTURE_SEED ?= 1
TORTURE_OPS  ?= 1000
FUZZTIME     ?= 10s

all: check

build:
	$(GO) build ./...

# Tier-1 gate: must always pass.
test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tests ./...

# Extended static analysis, gated on the tool being installed so the
# gate works on minimal containers (nothing is downloaded). Install
# with: go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Race-detector pass over the packages with concurrent machinery
# (scheduler, column-parallel merge, HTAP stress tests, the calc
# executor's Combine branches and shared graphs, the
# morsel-parallel batch operators).
race:
	$(GO) test -race ./internal/core/... ./internal/merge/... ./internal/calc/... ./internal/engine/...

race-all:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Short coverage-guided fuzz runs over the untrusted-input surfaces:
# snapshot decoding, WAL record parsing, server tokenizing, and the
# SQL lexer/parser. Go allows one -fuzz package per invocation, hence
# one run each.
fuzz:
	$(GO) test ./internal/persist -run '^$$' -fuzz FuzzDecoder -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzWALRecord -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/hanaserver -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sql -run '^$$' -fuzz FuzzSQLParse -fuzztime $(FUZZTIME)

# Crash-torture sweep + seeded differential run against the oracle.
# Reproduce a reported failure by re-running with the printed seed.
torture:
	$(GO) test ./internal/torture -run TestCrashTorture -v -count 1
	TORTURE_SEED=$(TORTURE_SEED) TORTURE_OPS=$(TORTURE_OPS) \
		$(GO) test ./internal/torture -run TestDifferentialOracle -v -count 1

# Morsel-parallel scan gate: the -race stress test (concurrent
# parallel scans vs. writers vs. L2→main merges on one table), the
# seeded parallel-vs-sequential differentials, the morsel-boundary
# fuzz check, and the parallel batch-operator differentials.
race-parallel:
	$(GO) test -race -count 1 -timeout 180s \
		-run 'TestParallelScan|TestConcurrentParallelScanStress|TestPlanMorsels' \
		./internal/core
	$(GO) test -race -count 1 -timeout 180s \
		-run 'TestBatchHashAggregateParallel|TestBatchHashJoinParallelBuild|TestBatchTableScanUnordered' \
		./internal/engine

# SQL front-end gate under the race detector: the compiler's own
# suite (parser round-trips, typed-AST checks, golden plan shapes,
# morsel-parallel fusion counter), the wire-level SQL command and
# transaction tests, and the SQL mixed workload over the wire with its
# row-by-row oracle differential and same-seed end-state check.
sql-smoke:
	$(GO) test -race -count 1 -timeout 180s ./internal/sql
	$(GO) test -race -count 1 -timeout 120s \
		-run 'TestSQLWireCommands|TestSQLWireTransactions|TestMixedBenchOverWire$$|TestMixedBenchOverWireSQL|TestMixedDeterministicEndState' \
		./cmd/hanaserver

# Query-lifecycle and network-chaos gate under the race detector: the
# multi-seed netfault run (mixed SQL workload through fault-injected
# connections, oracle-verified row by row, goroutine-leak checked, one
# server surviving all seeds), the wire driver's other inputs and its
# self-test, the statement timeout / memory budget / KILL wire tests,
# the reconnecting-client suite, and the fault-injector's own tests.
chaos-smoke:
	$(GO) test -race -count 1 -timeout 300s \
		-run 'TestChaosWireBench|TestMixedBenchOverWire|TestWireDriverSelfTest|TestWireStatementTimeout|TestWireMemBudget|TestWireKillMidStatement|TestDrainDuringExecute|TestTornLineNotExecuted' \
		./cmd/hanaserver
	$(GO) test -race -count 1 -timeout 120s ./internal/client ./internal/netfault ./internal/budget

# Query-observability gate under the race detector: the pinned
# EXPLAIN ANALYZE oracle (per-operator actual row counts over the
# wire), killed-statement span replay via TRACE <stmt-id>, SLOWLOG
# capture, the TRACE table filter, the engine-level EXPLAIN ANALYZE
# oracle, and the mixed workload's statement classes asserting
# stats-tree/plan-shape congruence.
explain-smoke:
	$(GO) test -race -count 1 -timeout 180s \
		-run 'TestWireExplainAnalyzeOracle|TestWireKilledStatementSpans|TestWireSlowLog|TestWireTraceTableFilter' \
		./cmd/hanaserver
	$(GO) test -race -count 1 -timeout 120s \
		-run 'TestExplainAnalyzeOracle|TestMixedSQLExplainAnalyze|TestStmtSpans|TestSlowQuery|TestCutExplain|TestExplainViaExec' \
		./internal/sql

# E14 observability gate: the instrumented 1M-row scan must stay
# within 2% of the disabled-registry baseline, and the per-operator
# stats plumbing must keep the 1M-row scan-aggregate within 2% of the
# collection-off path (internal/obs design contract; see
# EXPERIMENTS.md E14).
obs-bench:
	OBS_BENCH=1 $(GO) test -run 'TestE14ObsOverhead|TestExplainStatsOverhead' -count 1 -v -timeout 300s .

# Overload/shutdown soak: the degradation ladder, merge-outage
# recovery, and the graceful-drain workload under the race detector.
soak:
	$(GO) test -race -count 1 -timeout 120s \
		-run 'TestDegradationLadder|TestMergeBackoffAndCircuit|TestSchedulerRecoversWithoutManualMerge|TestScanCancellation' \
		./internal/core
	$(GO) test -race -count 1 -timeout 120s \
		-run 'TestGracefulDrain|TestMaxConnsShedding|TestAcceptLoopSurvivesTransientErrors|TestOversizedLineReported' \
		./cmd/hanaserver

check: test vet staticcheck race race-parallel torture soak obs-bench sql-smoke chaos-smoke explain-smoke
