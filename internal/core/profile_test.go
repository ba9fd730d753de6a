package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fluodb/internal/plan"
)

// q17SQL is the nested non-monotonic workload used by the profiler
// tests: the correlated AVG subquery's per-group estimates can move
// against the committed variation ranges, so the engine exercises
// uncertain caching, range maintenance and (with tight epsilon)
// recomputation.
const q17SQL = `SELECT SUM(extendedprice) / 7.0 FROM lineitem l
	WHERE quantity < (SELECT 0.5 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)`

// tracedQ17 runs Q17 at a scale/epsilon empirically known to trigger
// at least one variation-range failure, with the event tracer attached.
func tracedQ17(t *testing.T) (*Engine, *Tracer) {
	t.Helper()
	cat := synthCatalog(6000, 40, 5)
	q, err := plan.Compile(q17SQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(1 << 14)
	eng, err := New(q, cat, Options{Batches: 10, Trials: 30, Seed: 7,
		EpsilonSigma: 0.3, Parallelism: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	return eng, tr
}

func TestMetricsPhaseConsistency(t *testing.T) {
	eng, _ := tracedQ17(t)
	m := eng.Metrics()

	if m.Batches != 10 {
		t.Fatalf("Batches = %d, want 10", m.Batches)
	}
	if m.Recomputes == 0 {
		t.Fatal("workload chosen to recompute reported Recomputes = 0")
	}
	if len(m.UncertainPerBatch) != m.Batches || len(m.BatchDurations) != m.Batches ||
		len(m.PhasePerBatch) != m.Batches {
		t.Fatalf("per-batch series lengths %d/%d/%d, want %d",
			len(m.UncertainPerBatch), len(m.BatchDurations), len(m.PhasePerBatch), m.Batches)
	}
	anyUncertain := false
	for _, u := range m.UncertainPerBatch {
		if u > 0 {
			anyUncertain = true
		}
	}
	if !anyUncertain {
		t.Fatal("nested workload never cached uncertain tuples")
	}

	// Every phase must be populated, including the recompute the
	// workload forces.
	p := m.Phases
	if p.Fold == 0 || p.Ranges == 0 || p.Uncertain == 0 {
		t.Fatalf("in-batch phases missing: %+v", p)
	}
	if p.Recompute == 0 || p.Snapshot == 0 {
		t.Fatalf("recompute/snapshot phases missing: %+v", p)
	}

	checkPhaseAccounting(t, m)
	for i, bp := range m.PhasePerBatch {
		if bp.Recompute > m.BatchDurations[i] {
			t.Fatalf("batch %d recompute %v exceeds batch duration %v", i+1, bp.Recompute, m.BatchDurations[i])
		}
	}

	// Per-block profiles: one per lineage block, sub-block maintains
	// ranges, root never does.
	if len(m.BlockPhases) != 2 {
		t.Fatalf("BlockPhases = %d entries, want 2", len(m.BlockPhases))
	}
	for _, bp := range m.BlockPhases {
		if bp.Kind == "root" {
			if bp.Phases.Ranges != 0 {
				t.Fatalf("root block accrued range-maintenance time: %+v", bp.Phases)
			}
		} else if bp.Phases.Ranges == 0 {
			t.Fatalf("parameter block %d accrued no range-maintenance time", bp.Block)
		}
	}
}

// checkPhaseAccounting asserts the profiler's accounting invariants:
// each batch's disjoint in-batch work fits inside its wall duration,
// the cumulative breakdown equals the sum of the per-batch breakdowns
// (same integers, merged), and the per-block fold times sum to the run
// total.
func checkPhaseAccounting(t *testing.T, m Metrics) {
	t.Helper()
	var sum PhaseTimes
	for i, bp := range m.PhasePerBatch {
		sum = PhaseTimes{
			Fold:      sum.Fold + bp.Fold,
			Uncertain: sum.Uncertain + bp.Uncertain,
			Ranges:    sum.Ranges + bp.Ranges,
			Recompute: sum.Recompute + bp.Recompute,
			Snapshot:  sum.Snapshot + bp.Snapshot,
		}
		if work := bp.BatchWork(); work > m.BatchDurations[i] {
			t.Fatalf("batch %d phase work %v exceeds batch duration %v", i+1, work, m.BatchDurations[i])
		}
	}
	if sum != m.Phases {
		t.Fatalf("per-batch phases sum %+v != cumulative %+v", sum, m.Phases)
	}
	var blockFold time.Duration
	for _, bp := range m.BlockPhases {
		blockFold += bp.Phases.Fold
	}
	if blockFold != m.Phases.Fold {
		t.Fatalf("block fold times %v don't sum to run total %v", blockFold, m.Phases.Fold)
	}
}

// TestPhasesAlwaysOnPartitionBatch pins the always-on profiler's
// accounting at P=1 and on the worker pool at P=4: every block that fed
// rows accrues feed time in every batch, each batch's in-batch phases
// fit inside its wall duration (they are disjoint controller slices, so
// worker time never stacks), the cumulative phases equal the per-batch
// sum, and the per-block fold times sum to the run total.
func TestPhasesAlwaysOnPartitionBatch(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			cat := synthCatalog(6000, 40, 5)
			q, err := plan.Compile(q17SQL, cat)
			if err != nil {
				t.Fatal(err)
			}
			// 600-row batches: a 128-row threshold engages all 4 workers.
			eng, err := New(q, cat, Options{Batches: 10, Trials: 30, Seed: 7,
				EpsilonSigma: 0.3, Parallelism: par, ParallelThreshold: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			prev := make([]time.Duration, len(eng.runners))
			for !eng.Done() {
				snap, err := eng.Step()
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range snap.Blocks {
					if b.Phases.Fold <= prev[i] {
						t.Fatalf("batch %d: block %d accrued no feed time (%v → %v)",
							snap.Batch, b.ID, prev[i], b.Phases.Fold)
					}
					prev[i] = b.Phases.Fold
				}
			}
			if par > 1 && eng.pool == nil {
				t.Fatal("P=4 run never engaged the worker pool")
			}
			m := eng.Metrics()
			if m.Phases.Fold == 0 {
				t.Fatalf("default options recorded no fold time: %+v", m.Phases)
			}
			checkPhaseAccounting(t, m)
		})
	}
}

func TestSnapshotCarriesPhases(t *testing.T) {
	cat := synthCatalog(3000, 20, 5)
	q, err := plan.Compile(q17SQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 5, Trials: 20, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Phases.Fold == 0 || snap.Phases.Snapshot == 0 {
		t.Fatalf("snapshot phases not populated: %+v", snap.Phases)
	}
	if len(snap.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(snap.Blocks))
	}
	for _, b := range snap.Blocks {
		if b.Phases.Fold == 0 {
			t.Fatalf("block %d carries no fold time: %+v", b.ID, b.Phases)
		}
	}
}

func TestReportBreakdown(t *testing.T) {
	eng, _ := tracedQ17(t)
	rep := eng.Report()
	for _, want := range []string{
		"G-OLA profile:", "recomputes", "phase totals:",
		"block 0 [", "block 1 [root]", "table=lineitem",
		"batch", "fold", "uncertain", "ranges", "recompute", "snapshot",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("Report() missing %q:\n%s", want, rep)
		}
	}
	// One per-batch trajectory line per processed batch.
	if got := strings.Count(rep, "\n"); got < 12 {
		t.Fatalf("Report() suspiciously short (%d lines):\n%s", got, rep)
	}
}

func TestPhaseTimesHelpers(t *testing.T) {
	p := PhaseTimes{Fold: time.Millisecond, Uncertain: 2 * time.Millisecond,
		Recompute: 4 * time.Millisecond, Snapshot: 8 * time.Millisecond}
	if got := p.BatchWork(); got != 3*time.Millisecond {
		t.Fatalf("BatchWork = %v, want 3ms (recompute/snapshot excluded)", got)
	}
	ms := p.Milliseconds()
	if ms["fold"] != 1 || ms["uncertain"] != 2 || ms["recompute"] != 4 || ms["snapshot"] != 8 {
		t.Fatalf("Milliseconds = %v", ms)
	}
	if _, ok := ms["ranges"]; ok {
		t.Fatal("zero phases must be omitted from Milliseconds")
	}
	if len(PhaseNames) != numPhases || len(p.Durations()) != numPhases {
		t.Fatalf("PhaseNames length %d, Durations length %d, numPhases %d",
			len(PhaseNames), len(p.Durations()), numPhases)
	}
	if got := strings.Join(PhaseNames, " "); got != "fold uncertain ranges recompute snapshot" {
		t.Fatalf("PhaseNames = %q", got)
	}
	if s := p.String(); !strings.Contains(s, "fold 1.0ms") || !strings.Contains(s, "uncertain 2.0ms") {
		t.Fatalf("String() = %q", s)
	}
}
