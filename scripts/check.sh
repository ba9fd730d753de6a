#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#
#   go vet           static checks
#   go build         the whole tree compiles
#   go test -race    full suite under the race detector
#   determinism      pooled parallel runs bit-identical to serial
#   alloc regression steady-state fold stays allocation-free; pooled
#                    batch feed stays amortized-zero
#                    (run without -race: its instrumentation allocates,
#                    so the alloc tests skip themselves under it)
#   columnar gates   segment-sweep fold stays at 0 allocs/tuple; the
#                    columnar/row bit-identity sweep re-runs under -race
#   ledger gates     resource-ledger charge counters match ground truth,
#                    per-batch collection allocates nothing, and budget
#                    degradation stays bit-identical across P
#   chaos gate       short seeded fault soak under -race: bit-identical
#                    answers under injected panics/stragglers/corruption,
#                    checkpoint round-trips, zero leaked goroutines; a
#                    real fold panic surfaces as a typed error at P=1, 4
#   snapshot gates   golden trajectory hashes, row-major trial overlays
#                    equal to per-trial overlays, and snapshot allocations
#                    flat in the trial count B
#   perfbench        the end-to-end benchmark's own tests (a separate Go
#                    module that the root go test ./... does not reach)
#   benchdiff        advisory fold ns/row diff vs BENCH_fold.json
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== parallel determinism (pool P in {2,3,4,8} vs serial, recompute replay)"
# TestParallelFoldBitIdentical sweeps the pooled runtime across
# P∈{2,3,4,8} (P=3 splits batches unevenly) against the serial (P=1)
# snapshots; TestRecomputeReplayBitIdentical forces a mid-run
# variation-range failure with Parallelism 4 and asserts the replayed
# result is byte-identical to serial (the prefetch-invalidation guard).
go test ./internal/core -run 'TestParallelFoldBitIdentical|TestRecomputeReplayBitIdentical' -count=1

echo "== alloc regression (go test ./internal/core -run TestFoldSteadyStateAllocs)"
go test ./internal/core -run TestFoldSteadyStateAllocs -count=1

echo "== alloc regression with the event tracer on (traced subtests)"
# Subtest names have two or three levels (single-key/traced,
# single-key/sampled/traced); the third pattern level admits "sampled"
# so the sampled cases run too.
go test ./internal/core -run 'TestFoldSteadyStateAllocs/.+/(traced|sampled)/traced' -count=1

echo "== alloc regression with span timelines on (spanned subtests)"
# The span tracer records at batch/phase/task granularity into
# preallocated slabs, so the per-tuple fold loop must stay at zero
# allocations with a SpanTracer attached.
go test ./internal/core -run 'TestFoldSteadyStateAllocs/.+/(spanned|sampled)/spanned' -count=1

echo "== span timeline smoke (go test ./internal/core -run TestSpanHierarchyParallelQuery)"
# A P=4 multi-key query must export a Chrome trace that parses as JSON
# with every child span inside its parent and every worker task inside
# a mini-batch (otrace.ValidateChromeJSON re-checks nesting from the
# exported bytes, not the in-memory slabs).
go test ./internal/core -run 'TestSpanHierarchyParallelQuery|TestSpanInstantCorrelation' -count=1

echo "== pooled batch alloc gate (go test ./internal/core -run TestPooledFeedBatchAllocs)"
go test ./internal/core -run TestPooledFeedBatchAllocs -count=1

echo "== columnar fold alloc gate (go test ./internal/core -run TestColumnarFoldAllocs)"
# The segment-sweep hot path must stay at zero allocations per tuple
# once scratch is warm (kernels, tri/selection vectors, weight buffers
# and the group memo are all reused across batches).
go test ./internal/core -run TestColumnarFoldAllocs -count=1

echo "== dims-grouped columnar alloc gate (go test ./internal/core -run TestColumnarDimsFoldAllocs)"
# The dims-grouped sweep must also stay at zero allocations once the
# join memo has seen every distinct fact key combination (joined-row
# expansion and group resolution both run through word-code memos).
go test ./internal/core -run TestColumnarDimsFoldAllocs -count=1

echo "== columnar bit-identity under -race (go test -race ./internal/core -run TestColumnarBitIdentical)"
# A small race-instrumented slice of the columnar/row equivalence sweep
# (including the dims-grouped and tri-kernel uncertain-where queries):
# shard-parallel segment sweeps share plan and colstore state read-only,
# and the race detector holds them to it.
go test -race ./internal/core -run 'TestColumnarBitIdentical|TestColumnarSubsampleBitIdentical' -count=1

echo "== tri-kernel parity + segseal chaos (go test ./internal/core)"
# The vectorized tri-state classifier must match per-row evalTri
# decision-for-decision across the expression × range matrix, and
# injected segment-cache drops on the incremental seal seam must
# re-encode and re-engage without perturbing bit-identity.
go test ./internal/core -run 'TestTriKernelParity|TestTriKernelRefusals|TestChaosSegSealDrop' -count=1

echo "== resource ledger gates (ground truth, 0-alloc collection, budget bit-identity)"
# The group-table charge counter must agree with an independent walk of
# the final table; the per-batch residency collection (walk + GC read +
# usage stamp) must allocate nothing; and a 1-byte MaxMemoryBytes budget
# forcing all three degradation rungs must stay bit-identical to the
# unbudgeted run across seeds and P∈{1,2,4,8}, with checkpoint/resume
# re-engaging the latched rungs.
go test ./internal/core -run 'TestLedgerGroundTruth|TestLedgerUncertainCharge|TestLedgerCollectAllocs|TestBudgetDegradeBitIdentical|TestBudgetCheckpointResume' -count=1

echo "== mem families conformance (go test ./internal/metrics -run 'Conformance')"
# The gola_mem_*/gola_gc_* families and the reason-split eviction
# counter must pass the strict Prometheus exposition parser.
go test ./internal/metrics -run 'TestMemFamiliesConformance|TestExpositionConformance' -count=1

echo "== go vet (observability packages)"
go vet ./internal/metrics/ ./internal/dashboard/ ./internal/audit/

echo "== statistical gate (go test ./internal/audit -run TestAuditGate)"
# Fails if bootstrap-CI coverage on the small fixed-seed workload drops
# below 0.90, if any committed deterministic decision stands
# contradicted, or if the uncertain set stops draining monotonically.
go test ./internal/audit -run TestAuditGate -count=1

echo "== chaos gate (go test -race ./internal/bench -run TestChaosGate; ./internal/core -run TestFoldPanicTypedError)"
# 90 seeded fault schedules under the race detector: the 7-profile ×
# 3-mode × 2-query rotation twice over. Each run must be bit-identical
# to the fault-free reference, every checkpoint round-trip
# byte-identical, and runtime.NumGoroutine must return to its pre-soak
# level. The full soak is `make chaos` (1000+ schedules).
# TestFoldPanicTypedError covers the ladder's last rung with a real
# panicking UDF: at P=1 and P=4 the panic must surface as a latched
# worker-panic QueryError, never a raw panic, with no goroutine leaked.
go test -race ./internal/bench -run TestChaosGate -count=1
go test -race ./internal/core -run TestFoldPanicTypedError -count=1

echo "== snapshot gates (golden hashes, trial-overlay property, allocs flat in B)"
# Every snapshot value, CI bound and RSD of the pinned queries must keep
# its recorded bits; the one-pass trial overlays must equal the
# per-trial reference for every trial; and a Q18 refresh at B=100 must
# allocate within a small constant of the same refresh at B=50 (run
# without -race: its instrumentation allocates).
go test ./internal/core -run 'TestGoldenTrajectoryHashes|TestTrialOverlaysMatchPerTrial|TestSnapshotAllocsFlatInTrials' -count=1

echo "== perfbench module tests (cd perfbench && go test ./...)"
(cd perfbench && go test ./...)

echo "== benchdiff (advisory, never fails the gate)"
sh scripts/benchdiff.sh || true

echo "== check OK"
