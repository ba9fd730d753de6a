package core

import (
	"testing"

	"fluodb/internal/plan"
	"fluodb/internal/workload"
)

// nestedSnapshotEngine returns a Q18 engine (uncertain IN-membership
// from a grouped HAVING subquery) stopped halfway through its batches,
// with a few thousand cached uncertain rows.
func nestedSnapshotEngine(tb testing.TB, trials int) *Engine {
	tb.Helper()
	cat := workload.TPCHCatalog(20000, 200, 5)
	q, err := plan.Compile(suiteSQL("Q18"), cat)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 20, Trials: trials, Seed: 3, Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	if eng.UncertainRows() == 0 {
		tb.Fatal("no uncertain rows mid-run")
	}
	return eng
}

// refreshSnapshot redoes a batch's error-estimation work after the fold:
// the parameter blocks re-derive their bindings, which reinstalls their
// lazy replica vectors, and the root emits a snapshot that probes them.
// At an unchanged engine state the binding updates are idempotent.
func refreshSnapshot(e *Engine) *Snapshot {
	for _, r := range e.runners[:len(e.runners)-1] {
		e.updateBinding(r)
	}
	return e.snapshot(0)
}

// snapshotSink keeps benchmarked snapshots observable to the compiler.
var snapshotSink *Snapshot

// BenchmarkSnapshotNested measures one snapshot refresh of Q18 mid-run
// at B = 100 (run with -benchmem).
func BenchmarkSnapshotNested(b *testing.B) {
	eng := nestedSnapshotEngine(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = refreshSnapshot(eng)
	}
}

// TestSnapshotAllocsFlatInTrials is the snapshot allocation gate: trial
// overlays are dense cells built in one pass, so a refresh at B = 100
// allocates within a small constant of the same refresh at B = 50 (the
// per-trial overlays it replaced allocated per trial and uncertain row).
// Both refreshes run on one engine state, built at B = 100 and evaluated
// over its first 50 or all 100 trials, so the uncertain set is the same.
func TestSnapshotAllocsFlatInTrials(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng := nestedSnapshotEngine(t, 100)
	allocs := func(trials int) float64 {
		eng.opt.Trials = trials
		return testing.AllocsPerRun(3, func() { refreshSnapshot(eng) })
	}
	a50 := allocs(50)
	a100 := allocs(100)
	t.Logf("allocs per refresh: B=50 %.0f, B=100 %.0f, uncertain rows %d", a50, a100, eng.UncertainRows())
	if a100-a50 > 64 {
		t.Fatalf("allocs per refresh grow with B: %.0f at B=50, %.0f at B=100", a50, a100)
	}
}
