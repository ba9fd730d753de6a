.PHONY: check test bench-fold bench-compare bench-snapshot perfbench audit chaos trace mem

# Tier-1 gate: vet + build + race-enabled tests + fold alloc regression.
check:
	sh scripts/check.sh

test:
	go test ./...

# Fold hot-path throughput; append -json/-label via ARGS to record a
# new BENCH_fold.json entry.
bench-fold:
	go test ./internal/core -bench BenchmarkFold -benchmem
	go run ./cmd/flbench -experiment fold -rows 100000 $(ARGS)

# Snapshot refresh micro-bench: Q18 stopped mid-run at B=100 (trial
# overlays, replica vectors, CIs), with allocations.
bench-snapshot:
	go test ./internal/core -run XXX -bench BenchmarkSnapshotNested -benchmem

# End-to-end benchmark (BENCHMARK.json). Prints the tpch-nested A/B
# command: run it in a checkout of each side, alternating, and compare
# the JSON result lines (add --trace 1 for per-layer metrics).
perfbench:
	@echo "python3 perfbench/run.py --workload tpch-nested --seed 3 --seconds 15 --trace 0"

# Advisory perf diff: fresh fold run vs the committed BENCH_fold.json;
# warns above 10% ns/row regression, never fails (see benchdiff.sh).
bench-compare:
	sh scripts/benchdiff.sh

# Statistical-correctness audit: 20 seeded replications measuring
# empirical CI coverage, relative-error trajectories, and the
# deterministic-set invariant; regenerates BENCH_accuracy.json.
audit:
	go run ./cmd/flbench -experiment audit $(ARGS)

# Robustness soak: 1000+ deterministically seeded fault schedules
# (worker panics, stragglers, shard corruption, prefetch loss) against
# the chaos-hardened runtime; every run must be bit-identical to its
# fault-free reference, every checkpoint round-trip byte-identical, and
# no goroutine may leak. Scale with ARGS="-schedules 5000".
chaos:
	go run ./cmd/flbench -experiment chaos $(ARGS)

# Memory observability: per-pool ledger residency across scenarios and
# worker counts, GC telemetry, and a forced walk down the MaxMemoryBytes
# degradation ladder verified bit-identical against the unbudgeted run
# (the command fails on divergence). Record with ARGS="-json mem.json".
mem:
	go run ./cmd/flbench -experiment mem $(ARGS)

# Span-timeline capture: run one traced suite query (default Q17) and
# write trace.json (Chrome trace-event format — open in ui.perfetto.dev
# or chrome://tracing) plus trace.jsonl (the structured G-OLA event
# ring). Pick a query with ARGS="-tracequery SBI".
trace:
	go run ./cmd/flbench -spans trace.json -trace trace.jsonl $(ARGS)
