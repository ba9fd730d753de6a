package core

import (
	"fmt"
	"testing"

	"fluodb/internal/bootstrap"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
)

// The columnar path (columnar.go) is pinned to be bit-identical to the
// row path: same snapshots, same CIs, same group order, across seeds and
// parallelism, with NULLs, dictionary strings, compilable WHERE clauses
// and nested-subquery (uncertain) predicates in play. Options.RowPath
// provides the reference run.

// columnarCatalog builds a fact table exercising every columnar feature:
// dictionary string keys, an int key, integer-valued float measures
// (exact float adds, so bit-identity is meaningful), NULLs in both a
// measure and a key column, and a second string column for LIKE.
func columnarCatalog(n int, seed uint64) *storage.Catalog {
	cat := storage.NewCatalog()
	t := storage.NewTable("facts", types.NewSchema(
		"a", types.KindString,
		"b", types.KindInt,
		"x", types.KindFloat,
		"s", types.KindString,
	))
	as := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	ss := []string{"alpha", "beta", "gamma", ""}
	// First rows enumerate all groups so shard 0 fixes insertion order.
	for i := 0; i < 8; i++ {
		for j := 0; j < 16; j++ {
			_ = t.Append(types.Row{
				types.NewString(as[i]),
				types.NewInt(int64(j)),
				types.NewFloat(float64(i + j)),
				types.NewString(ss[(i+j)%len(ss)]),
			})
		}
	}
	rng := bootstrap.NewRNG(seed)
	for i := 128; i < n; i++ {
		row := types.Row{
			types.NewString(as[rng.Intn(len(as))]),
			types.NewInt(int64(rng.Intn(16))),
			types.NewFloat(float64(rng.Intn(1000))),
			types.NewString(ss[rng.Intn(len(ss))]),
		}
		if rng.Intn(12) == 0 {
			row[2] = types.Null // NULL measure
		}
		if rng.Intn(40) == 0 {
			row[1] = types.Null // NULL group key
		}
		_ = t.Append(row)
	}
	cat.Put(t)
	// Dimension tables for the dims-grouped columnar path. bdim covers
	// only b∈[0,12): b=12..15 and NULL b miss the inner join, and keys 3
	// and 7 are duplicated so one fact key expands to two joined rows
	// (memoCnt > 1 in the join memo).
	bd := storage.NewTable("bdim", types.NewSchema(
		"bkey", types.KindInt, "cat", types.KindString))
	for k := 0; k < 12; k++ {
		_ = bd.Append(types.Row{
			types.NewInt(int64(k)),
			types.NewString([]string{"lo", "mid", "hi"}[k%3]),
		})
		if k == 3 || k == 7 {
			_ = bd.Append(types.Row{
				types.NewInt(int64(k)), types.NewString("dup"),
			})
		}
	}
	cat.Put(bd)
	// adim joins the dictionary string key; "hh" is missing so the
	// string-keyed join also filters.
	ad := storage.NewTable("adim", types.NewSchema(
		"akey", types.KindString, "region", types.KindString))
	for i, a := range as[:7] {
		_ = ad.Append(types.Row{
			types.NewString(a),
			types.NewString([]string{"north", "south"}[i%2]),
		})
	}
	cat.Put(ad)
	return cat
}

// columnarQueries span the eligibility space: plain fold, vectorized
// certain WHERE (numeric, string/LIKE, IS NULL, AND/OR), scalar blocks,
// and an uncertain nested-subquery predicate (per-row fallback on
// selected rows).
var columnarQueries = []struct {
	name string
	sql  string
}{
	{"group-fold", `SELECT a, b, COUNT(x), SUM(x), AVG(x) FROM facts GROUP BY a, b`},
	{"certain-where", `SELECT a, COUNT(x), SUM(x) FROM facts WHERE x < 600 AND b >= 4 GROUP BY a`},
	{"string-where", `SELECT b, COUNT(x), AVG(x) FROM facts WHERE s LIKE 'a%' OR s = 'beta' GROUP BY b`},
	{"null-where", `SELECT a, COUNT(x) FROM facts WHERE x IS NOT NULL AND b IS NOT NULL GROUP BY a`},
	{"scalar", `SELECT COUNT(x), SUM(x), AVG(x) FROM facts WHERE b < 12`},
	{"uncertain", `SELECT a, COUNT(x), SUM(x) FROM facts
		WHERE b >= 2 AND x < (SELECT 0.9 * AVG(x) FROM facts) GROUP BY a`},
	{"dims-join", `SELECT cat, COUNT(x), SUM(x), AVG(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey GROUP BY cat`},
	{"dims-chain", `SELECT region, cat, COUNT(x), SUM(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey
		JOIN adim e ON f.a = e.akey
		WHERE x < 700 GROUP BY region, cat`},
	{"dims-mixed-keys", `SELECT a, cat, COUNT(x), SUM(x), AVG(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey GROUP BY a, cat`},
	{"dims-uncertain", `SELECT cat, COUNT(x), SUM(x) FROM facts f
		JOIN bdim d ON f.b = d.bkey
		WHERE x < (SELECT 0.9 * AVG(x) FROM facts) GROUP BY cat`},
}

func columnarOptions(seed uint64, parallelism int, rowPath bool) Options {
	return Options{
		Batches: 3, Trials: 40, Seed: seed,
		BootstrapSampleCap: -1,
		Parallelism:        parallelism,
		ParallelThreshold:  512,
		RowPath:            rowPath,
	}
}

// TestColumnarBitIdentical asserts the columnar classify/fold path
// reproduces the row path's snapshots bit for bit across seeds and
// P∈{1,2,4,8}. The row-path reference runs serially; the parallel row
// path is itself pinned to serial by TestParallelFoldBitIdentical, so
// this covers the full matrix.
func TestColumnarBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		cat := columnarCatalog(3*8192, seed)
		for _, q := range columnarQueries {
			t.Run(fmt.Sprintf("%s/seed=%d", q.name, seed), func(t *testing.T) {
				ref := runSnapshots(t, cat, q.sql, columnarOptions(seed, 1, true))
				for _, p := range []int{1, 2, 4, 8} {
					got := runSnapshots(t, cat, q.sql, columnarOptions(seed, p, false))
					compareSnapshots(t, fmt.Sprintf("columnar P=%d", p), ref, got)
				}
			})
		}
	}
}

// TestColumnarSubsampleBitIdentical repeats the comparison with a
// bootstrap sample cap, exercising the subsample-membership gate and the
// direct float-weight generation (vs the uint8 round trip) under
// non-integral 1/p scaling. The row-path reference runs at the SAME
// parallelism: under a cap, replica folds scale by a non-integral 1/p,
// so serial and sharded runs legitimately reassociate differently (a
// pre-existing property of the parallel merge, independent of this
// path) — the columnar claim is bit-identity against the row path over
// the identical shard partition.
func TestColumnarSubsampleBitIdentical(t *testing.T) {
	cat := columnarCatalog(2*8192, 5)
	for _, q := range columnarQueries {
		t.Run(q.name, func(t *testing.T) {
			for _, p := range []int{1, 4} {
				or := columnarOptions(5, p, true)
				or.BootstrapSampleCap = 3000
				ref := runSnapshots(t, cat, q.sql, or)
				oc := columnarOptions(5, p, false)
				oc.BootstrapSampleCap = 3000
				compareSnapshots(t, fmt.Sprintf("capped P=%d", p),
					ref, runSnapshots(t, cat, q.sql, oc))
			}
		})
	}
}

// TestColumnarPlanEligibility pins the fallback decisions: expression
// group keys, non-CLT aggregates and RowPath must all reject the plan,
// while the plain fold shape accepts it.
func TestColumnarPlanEligibility(t *testing.T) {
	cat := columnarCatalog(4000, 3)
	build := func(sql string, rowPath bool) *blockRunner {
		q, err := plan.Compile(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Batches: 2, Trials: 10, Seed: 3, Parallelism: 1, RowPath: rowPath}
		eng, err := New(q, cat, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng.runners[len(eng.runners)-1]
	}
	verdict := func(sql string, rowPath bool) string {
		return build(sql, rowPath).colPl.verdict()
	}
	// The verdict strings are API: Metrics/Report and the EvColPlan trace
	// event surface them verbatim, so pin them exactly.
	for _, tc := range []struct {
		sql     string
		rowPath bool
		want    string
	}{
		{`SELECT a, SUM(x) FROM facts GROUP BY a`, false, "columnar:fused"},
		{`SELECT a, b, SUM(x), COUNT(s) FROM facts GROUP BY a, b`, false, "columnar"},
		{`SELECT a, SUM(x) FROM facts GROUP BY a`, true, "rowpath:forced"},
		{`SELECT b + 1, SUM(x) FROM facts GROUP BY b + 1`, false, "rowpath:group:expr-key"},
		{`SELECT a, MIN(x) FROM facts GROUP BY a`, false, "rowpath:agg:not-estimable"},
		{`SELECT a, SUM(x + 1) FROM facts GROUP BY a`, false, "rowpath:agg:expr-arg"},
		{`SELECT cat, SUM(x) FROM facts f JOIN bdim d ON f.b = d.bkey GROUP BY cat`,
			false, "columnar:dims"},
		{`SELECT region, cat, SUM(x) FROM facts f
			JOIN bdim d ON f.b = d.bkey
			JOIN adim e ON f.a = e.akey GROUP BY region, cat`,
			false, "columnar:dims"},
		{`SELECT cat, SUM(x) FROM facts f JOIN bdim d ON f.b + 1 = d.bkey GROUP BY cat`,
			false, "rowpath:join:expr-key"},
		{`SELECT cat, SUM(bkey) FROM facts f JOIN bdim d ON f.b = d.bkey GROUP BY cat`,
			false, "rowpath:agg:dim-column"},
	} {
		if got := verdict(tc.sql, tc.rowPath); got != tc.want {
			t.Errorf("verdict(%q) = %q, want %q", tc.sql, got, tc.want)
		}
	}
}

// TestColumnarDimsFoldAllocs pins the dims-grouped columnar sweep to
// zero steady-state allocations: once the join memo has seen every
// distinct fact key combination, re-feeding the same rows resolves
// groups entirely through the word-code memos.
func TestColumnarDimsFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cat := columnarCatalog(20000, 71)
	for _, tc := range []struct {
		name string
		sql  string
	}{
		{"dim-key", `SELECT cat, SUM(x), AVG(x) FROM facts f
			JOIN bdim d ON f.b = d.bkey GROUP BY cat`},
		{"mixed-keys", `SELECT a, cat, SUM(x), AVG(x) FROM facts f
			JOIN bdim d ON f.b = d.bkey GROUP BY a, cat`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := plan.Compile(tc.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(q, cat, Options{Batches: 10, Trials: 100, Seed: 72, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			r := eng.runners[len(eng.runners)-1]
			if got := r.colPl.verdict(); got != "columnar:dims" {
				t.Fatalf("plan verdict = %q, want columnar:dims", got)
			}
			ts := eng.tables["facts"]
			te := eng.triEnv()
			rows := ts.batches[1]
			base := ts.starts[1]
			const chunk = 512
			// Warm the full batch so the join memo holds every key combo
			// the alloc loop can encounter.
			r.feedBatchSerial(rows, base, ts, te, nil)
			sweeps := r.cs.sweeps
			if sweeps == 0 {
				t.Fatal("columnar dims path did not engage")
			}
			off := 0
			allocs := testing.AllocsPerRun(40, func() {
				if off+chunk > len(rows) {
					off = 0
				}
				r.feedBatchSerial(rows[off:off+chunk], base+off, ts, te, nil)
				off += chunk
			})
			if allocs != 0 {
				t.Fatalf("dims columnar fold allocates %.1f allocs/chunk, want 0", allocs)
			}
			if r.cs.sweeps == sweeps {
				t.Fatal("alloc loop never swept a segment")
			}
		})
	}
}

// columnarBenchEnv builds a warmed engine over the fold catalog and
// returns the pieces to drive feedBatchSerial by hand over aligned
// chunks of the second mini-batch.
func columnarBenchEnv(tb testing.TB, multiKey, sampledAll, traced bool) (*Engine, *blockRunner, *tableStream, *triEnv) {
	cat := foldCatalog(20000, 71)
	sql := `SELECT a, SUM(x), AVG(x) FROM facts GROUP BY a`
	if multiKey {
		sql = `SELECT a, b, SUM(x), AVG(x) FROM facts GROUP BY a, b`
	}
	q, err := plan.Compile(sql, cat)
	if err != nil {
		tb.Fatal(err)
	}
	opt := Options{Batches: 10, Trials: 100, Seed: 72, Parallelism: 1}
	if sampledAll {
		opt.BootstrapSampleCap = -1
	}
	if traced {
		opt.Tracer = NewTracer(0)
	}
	eng, err := New(q, cat, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		tb.Fatal(err)
	}
	r := eng.runners[len(eng.runners)-1]
	if !r.colPl.ok {
		tb.Fatal("bench query must be columnar-eligible")
	}
	return eng, r, eng.tables["facts"], eng.triEnv()
}

// TestColumnarFoldAllocs pins the steady-state columnar fold to zero
// allocations per chunk (and therefore per tuple) after warmup, plain
// and with the event tracer attached ("traced"), for both subsample
// modes. It also asserts the columnar path actually engaged (segment
// sweeps advanced).
func TestColumnarFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, tc := range []struct {
		name       string
		multiKey   bool
		sampledAll bool
	}{
		{"single-key", false, false},
		{"single-key/sampled-all", false, true},
		{"multi-key/sampled-all", true, true},
	} {
		for _, mode := range []struct {
			name   string
			traced bool
		}{
			{"plain", false},
			{"traced", true},
		} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				eng, r, ts, te := columnarBenchEnv(t, tc.multiKey, tc.sampledAll, mode.traced)
				rows := ts.batches[1]
				base := ts.starts[1]
				const chunk = 512
				// Warm up: sizes scratch, kernel, memo, group entries.
				r.feedBatchSerial(rows[:chunk], base, ts, te, nil)
				sweeps := r.cs.sweeps
				if sweeps == 0 {
					t.Fatal("columnar path did not engage")
				}
				off := 0
				allocs := testing.AllocsPerRun(40, func() {
					if off+chunk > len(rows) {
						off = 0
					}
					r.feedBatchSerial(rows[off:off+chunk], base+off, ts, te, nil)
					off += chunk
				})
				if allocs != 0 {
					t.Fatalf("columnar fold allocates %.1f allocs/chunk, want 0", allocs)
				}
				if r.cs.sweeps == sweeps {
					t.Fatal("alloc loop never swept a segment")
				}
				if mode.traced && eng.trace == nil {
					t.Fatal("traced run has no tracer attached")
				}
			})
		}
	}
}

// benchFoldColumnar measures the columnar fold in ns/row by feeding
// aligned chunks through feedBatchSerial; compare with RowPath variants
// of the same shape via scripts/benchdiff.sh.
func benchFoldColumnar(b *testing.B, multiKey, sampledAll bool) {
	_, r, ts, te := columnarBenchEnv(b, multiKey, sampledAll, false)
	rows := ts.batches[1]
	base := ts.starts[1]
	const chunk = 512
	r.feedBatchSerial(rows[:chunk], base, ts, te, nil)
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for n := 0; n < b.N; n += chunk {
		if off+chunk > len(rows) {
			off = 0
		}
		r.feedBatchSerial(rows[off:off+chunk], base+off, ts, te, nil)
		off += chunk
	}
}

func BenchmarkFoldColumnarSingleKey(b *testing.B)        { benchFoldColumnar(b, false, false) }
func BenchmarkFoldColumnarSingleKeySampled(b *testing.B) { benchFoldColumnar(b, false, true) }
func BenchmarkFoldColumnarMultiKey(b *testing.B)         { benchFoldColumnar(b, true, false) }
func BenchmarkFoldColumnarMultiKeySampled(b *testing.B)  { benchFoldColumnar(b, true, true) }

// BenchmarkClassifyColumnar measures the vectorized predicate kernel in
// ns/row over whole segments (the WHERE of a typical filtered fold).
func BenchmarkClassifyColumnar(b *testing.B) {
	cat := foldCatalog(20000, 71)
	sql := `SELECT COUNT(x) FROM facts WHERE x < 50.0 AND b >= 4`
	q, err := plan.Compile(sql, cat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(q, cat, Options{Batches: 10, Trials: 20, Seed: 72, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	r := eng.runners[len(eng.runners)-1]
	tbl, _ := eng.cat.Get("facts")
	ct := tbl.Columnar()
	k := expr.CompileKernel(r.certainWhere, ct)
	if k == nil {
		b.Fatal("bench WHERE must compile")
	}
	out := make([]uint8, ct.SegSize)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		for _, seg := range ct.Segs {
			k.EvalInto(out, seg, 0, seg.N)
			n += seg.N
			if n >= b.N {
				break
			}
		}
	}
}
