package core

import (
	"math"
	"testing"

	"fluodb/internal/agg"
	"fluodb/internal/bootstrap"
	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// sameBits reports whether two post rows are identical value for value,
// floats compared by bit pattern.
func sameBits(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() {
			return false
		}
		if a[i].Kind() == types.KindFloat {
			if math.Float64bits(a[i].Float()) != math.Float64bits(b[i].Float()) {
				return false
			}
		} else if a[i] != b[i] {
			return false
		}
	}
	return true
}

// overlay is the reference implementation the row-major overlays are
// tested against: a copy-on-write view of an onlineTable for one trial
// (trial = -1 selects the main states), built by its own pass over the
// uncertain set with per-trial closures binding the params.
type overlay struct {
	base    *onlineTable
	trial   int
	touched map[string]*exec.GroupEntry
	extra   []string // keys created by uncertain rows, in order
}

func newOverlay(base *onlineTable, trial int) *overlay {
	return &overlay{base: base, trial: trial, touched: map[string]*exec.GroupEntry{}}
}

// baseStates selects the right state set from a base entry. For banked
// tables the returned states are freshly materialized views of the
// accumulators (mutation-safe).
func (o *overlay) baseStates(e *onlineEntry) []agg.State {
	if o.trial < 0 {
		return o.base.mainStates(e)
	}
	return o.base.trialStates(e, o.trial)
}

// entryFor returns a mutable entry for the key, cloning from base on
// first touch.
func (o *overlay) entryFor(b *plan.Block, key string, keyRow types.Row) *exec.GroupEntry {
	if e, ok := o.touched[key]; ok {
		return e
	}
	var states []agg.State
	if be, ok := o.base.m[key]; ok {
		src := o.baseStates(be)
		states = make([]agg.State, len(src))
		for i, s := range src {
			states[i] = s.Clone()
		}
	} else {
		states = newEntryStates(b)
		o.extra = append(o.extra, key)
	}
	e := &exec.GroupEntry{Key: keyRow, States: states}
	o.touched[key] = e
	return e
}

// fold adds one row into the overlay with the given weight.
func (o *overlay) fold(b *plan.Block, ctx *expr.Ctx, w float64) {
	keyRow := make(types.Row, len(b.GroupBy))
	cols := make([]int, len(b.GroupBy))
	for i, g := range b.GroupBy {
		keyRow[i] = g.Eval(ctx)
		cols[i] = i
	}
	key := keyRow.KeyString(cols)
	e := o.entryFor(b, key, keyRow)
	for i := range b.Aggs {
		e.States[i].Add(b.Aggs[i].Arg.Eval(ctx), w)
	}
}

// keys lists all group keys (base order, then overlay-only keys).
func (o *overlay) keys() []string {
	if len(o.extra) == 0 {
		return o.base.order
	}
	out := make([]string, 0, len(o.base.order)+len(o.extra))
	out = append(out, o.base.order...)
	out = append(out, o.extra...)
	return out
}

// entry returns the (possibly overlaid) group entry for a key, or nil.
func (o *overlay) entry(key string) *exec.GroupEntry {
	if e, ok := o.touched[key]; ok {
		return e
	}
	if be, ok := o.base.m[key]; ok {
		return &exec.GroupEntry{Key: be.key, States: o.baseStates(be)}
	}
	return nil
}

// postInto writes the group's finalized post-aggregate row
// [keys..., results...] into buf. A trial overlay only reports groups
// with bootstrap evidence: a base group without subsampled tuples
// (neither deterministic nor uncertain) has empty replica states, which
// must never be misread as values.
func (o *overlay) postInto(b *plan.Block, key string, scale float64, buf types.Row) (types.Row, bool) {
	if e, ok := o.touched[key]; ok {
		return exec.PostRowInto(b, e, scale, buf), true
	}
	be, ok := o.base.m[key]
	if !ok || (o.trial >= 0 && be.ns == 0) {
		return buf, false
	}
	return o.base.postInto(be, o.trial, scale, buf), true
}

// overlayFor folds the runner's uncertain set (under the point bindings
// for trial < 0, or trial j's bindings and Poisson weights otherwise)
// into a copy-on-write view of its deterministic state.
func (r *blockRunner) overlayFor(trial int) *overlay {
	o := newOverlay(r.tab, trial)
	var ctx *expr.Ctx
	if trial < 0 {
		ctx = r.eng.bind.pointCtx(nil)
	} else {
		ctx = r.eng.bind.trialCtx(nil, trial)
	}
	if trial < 0 {
		for i := range r.uncertain {
			u := &r.uncertain[i]
			ctx.Row = u.row
			if r.uncertainWhere != nil && !r.uncertainWhere.Eval(ctx).Truthy() {
				continue
			}
			o.fold(r.b, ctx, 1)
		}
		return o
	}
	for _, i := range r.sampledUncertain() {
		u := &r.uncertain[i]
		if u.weights[trial] == 0 {
			continue
		}
		ctx.Row = u.row
		if r.uncertainWhere != nil && !r.uncertainWhere.Eval(ctx).Truthy() {
			continue
		}
		o.fold(r.b, ctx, float64(u.weights[trial])*u.repW)
	}
	return o
}

// soleEntry fetches the single global-group entry of a scalar block
// (creating an empty one when no rows qualified yet).
func soleEntry(b *plan.Block, o *overlay) *exec.GroupEntry {
	keys := o.keys()
	if len(keys) == 0 {
		return &exec.GroupEntry{States: newEntryStates(b)}
	}
	return o.entry(keys[0])
}

// trialCtx builds the expression context of bootstrap trial j.
func (b *bindings) trialCtx(row types.Row, j int) *expr.Ctx {
	ctx := &expr.Ctx{Row: row}
	ctx.Scalars = make([]types.Value, len(b.scalars))
	for i, s := range b.scalars {
		ctx.Scalars[i] = s.reps[j]
	}
	ctx.Groups = make([]func(string) (types.Value, bool), len(b.groups))
	for i := range b.groups {
		g := b.groups[i]
		ctx.Groups[i] = func(key string) (types.Value, bool) {
			vs := g.repsFor(key)
			if vs == nil {
				return types.Null, false
			}
			return vs[j], true
		}
	}
	ctx.SetsFns = make([]expr.SetLookup, len(b.sets))
	for i := range b.sets {
		s := b.sets[i]
		ctx.SetsFns[i] = func(key string) bool {
			ms := s.repsFor(key)
			return ms != nil && ms[j]
		}
	}
	return ctx
}

// checkTrialOverlays asserts that the row-major build of trials 0..n-1
// equals overlayFor(j) for every j, and the point overlay equals
// overlayFor(-1).
func checkTrialOverlays(t *testing.T, label string, r *blockRunner, n int) {
	t.Helper()
	tos := r.trialOverlays(n, r.eng.bind.trialEnv(n))
	for j := 0; j < n; j++ {
		compareOverlay(t, label, r, tos, j, r.overlayFor(j))
	}
	compareOverlay(t, label+" (point)", r, r.pointOverlay(), 0, r.overlayFor(-1))
}

// compareOverlay checks cell trial j of got against the reference want:
// key order (extras included), every group's state bits (as post rows
// at two scales), the evidence-gated post rows, and the sole-group row
// of global blocks.
func compareOverlay(t *testing.T, label string, r *blockRunner, got *overlays, j int, want *overlay) {
	t.Helper()
	b := r.b
	wkeys, gkeys := want.keys(), got.keys(j)
	if len(wkeys) != len(gkeys) {
		t.Fatalf("%s trial %d: %d keys, want %d", label, j, len(gkeys), len(wkeys))
	}
	for i := range wkeys {
		if wkeys[i] != gkeys[i] {
			t.Fatalf("%s trial %d: key %d = %q, want %q", label, j, i, gkeys[i], wkeys[i])
		}
	}
	for _, scale := range []float64{1, 2.75} {
		for _, key := range wkeys {
			s, be := got.lookup(key)
			wpost := exec.PostRowInto(b, want.entry(key), scale, nil)
			var gpost types.Row
			if s >= 0 && got.touched[int(s)*got.n+j] {
				gpost = got.cellPost(s, j, scale, nil)
			} else {
				gpost = r.tab.postInto(be, got.baseTrial(j), scale, nil)
			}
			if !sameBits(wpost, gpost) {
				t.Fatalf("%s trial %d key %q: state %v, want %v", label, j, key, gpost, wpost)
			}
			wp, wok := want.postInto(b, key, scale, nil)
			gp, gok := got.postAt(s, be, j, scale, nil)
			if wok != gok || (wok && !sameBits(wp, gp)) {
				t.Fatalf("%s trial %d key %q: postAt %v/%v, want %v/%v", label, j, key, gp, gok, wp, wok)
			}
		}
		if len(b.GroupBy) == 0 {
			wsole := exec.PostRowInto(b, soleEntry(b, want), scale, nil)
			if gsole := got.solePostInto(j, scale, nil); !sameBits(wsole, gsole) {
				t.Fatalf("%s trial %d: sole row %v, want %v", label, j, gsole, wsole)
			}
		}
	}
}

// findParam returns the first node of type T in e.
func findParam[T expr.Expr](e expr.Expr) T {
	var out T
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if p, ok := x.(T); ok && !found {
			out, found = p, true
		}
		return !found
	})
	return out
}

func bin(op sqlparser.BinaryOp, l, r expr.Expr) expr.Expr { return &expr.Binary{Op: op, L: l, R: r} }

// TestTrialOverlaysMatchPerTrial is the property test of the row-major
// overlay build: over random data, subsample caps, trial counts and stop
// points, trialOverlays(n)[j] must equal overlayFor(j) for every trial j
// of every runner holding uncertain rows. The uncertain sets include
// zero-weight trials and rows outside the bootstrap subsample (repW 0).
// On the root of a mixed-param query it also swaps in synthetic shapes
// the planner does not produce: a GROUP BY reading a param, a GROUP BY
// whose canonical keys collide across kinds (1 vs 1.0), a group param
// index used twice with different key expressions, and a group param
// whose key itself reads a param (the memo must fall back for it).
func TestTrialOverlaysMatchPerTrial(t *testing.T) {
	queries := []string{
		`SELECT COUNT(*), SUM(extendedprice) FROM lineitem l
			WHERE quantity < (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
			  AND extendedprice > (SELECT AVG(extendedprice) FROM lineitem)`,
		`SELECT partkey, COUNT(*), AVG(quantity) FROM lineitem l
			WHERE quantity < (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
			   OR quantity > 1.1 * (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
			GROUP BY partkey`,
		`SELECT partkey, MAX(extendedprice), COUNT(*) FROM lineitem
			WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING MAX(quantity) > 40)
			GROUP BY partkey`,
		`SELECT orderkey, SUM(quantity) FROM lineitem
			WHERE orderkey NOT IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 100)
			GROUP BY orderkey`,
	}
	rng := bootstrap.NewRNG(20261017)
	checked, unsampled := 0, 0
	for iter := 0; iter < 16; iter++ {
		sql := queries[iter%len(queries)]
		cat := synthCatalog(800+rng.Intn(1200), 10+rng.Intn(30), uint64(100+iter))
		q, err := plan.Compile(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{
			Batches: 6 + rng.Intn(6), Trials: 4 + rng.Intn(14), Seed: uint64(iter + 1),
			Parallelism: 1, BootstrapSampleCap: 300 + rng.Intn(900),
		}
		eng, err := New(q, cat, opt)
		if err != nil {
			t.Fatal(err)
		}
		stop := 1 + rng.Intn(opt.Batches-1)
		for i := 0; i < stop; i++ {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range eng.runners {
			if len(r.sampledUncertain()) == 0 {
				continue
			}
			unsampled += len(r.uncertain) - len(r.sampledUncertain())
			checkTrialOverlays(t, sql, r, opt.Trials)
			checkTrialOverlays(t, sql, r, 1+rng.Intn(opt.Trials)) // a thinned snapshot
			checked++
		}
		if iter%len(queries) == 0 {
			checkSyntheticShapes(t, eng, opt.Trials)
		}
	}
	if checked < 8 {
		t.Fatalf("only %d runners had uncertain rows", checked)
	}
	if unsampled == 0 {
		t.Fatal("no uncertain rows outside the bootstrap subsample")
	}
}

// checkSyntheticShapes runs checkTrialOverlays on the mixed-param root
// (lineitem: orderkey 0, partkey 1, quantity 2, extendedprice 3) under
// block and predicate shapes built by hand.
func checkSyntheticShapes(t *testing.T, eng *Engine, n int) {
	t.Helper()
	r := eng.runners[len(eng.runners)-1]
	if len(r.sampledUncertain()) == 0 {
		return
	}
	origB, origWhere := r.b, r.uncertainWhere
	defer func() { r.b, r.uncertainWhere = origB, origWhere }()
	gp := findParam[*expr.GroupParam](origWhere)
	sp := findParam[*expr.ScalarParam](origWhere)
	if gp == nil || sp == nil {
		t.Fatal("mixed-param root lost its params")
	}
	col := func(i int) expr.Expr { return &expr.Col{Idx: i} }
	one := &expr.Const{V: types.NewInt(1)}

	withGroupBy := func(gb ...expr.Expr) {
		nb := *origB
		nb.GroupBy = gb
		r.b = &nb
	}
	// GROUP BY a param-bearing expression: keys differ by trial.
	withGroupBy(bin(sqlparser.OpGt, col(3), sp))
	checkTrialOverlays(t, "param group-by", r, n)
	// GROUP BY a param-free key that is an int for some rows and the
	// equal float for others.
	kindMix := &expr.Case{Else: bin(sqlparser.OpMul, col(1), &expr.Const{V: types.NewFloat(1)})}
	kindMix.Whens = append(kindMix.Whens, struct{ Cond, Result expr.Expr }{
		Cond: bin(sqlparser.OpGt, col(2), &expr.Const{V: types.NewFloat(25)}), Result: col(1)})
	withGroupBy(kindMix)
	checkTrialOverlays(t, "kind-mixed group-by", r, n)
	r.b = origB

	// One group param index, two nodes with different key expressions.
	twin := &expr.GroupParam{Idx: gp.Idx, Keys: []expr.Expr{bin(sqlparser.OpAdd, col(1), one)}, Typ: gp.Typ}
	r.uncertainWhere = bin(sqlparser.OpOr, origWhere, bin(sqlparser.OpLt, col(2), twin))
	checkTrialOverlays(t, "param index twice", r, n)
	// The same node reached twice in one predicate.
	r.uncertainWhere = bin(sqlparser.OpAnd, bin(sqlparser.OpLt, col(2), gp), bin(sqlparser.OpGt, bin(sqlparser.OpMul, col(2), one), gp))
	checkTrialOverlays(t, "same node twice", r, n)
	// A group param whose key reads a scalar param: not memoizable.
	shifted := &expr.Case{Else: col(1)}
	shifted.Whens = append(shifted.Whens, struct{ Cond, Result expr.Expr }{
		Cond: bin(sqlparser.OpGt, col(3), sp), Result: bin(sqlparser.OpAdd, col(1), one)})
	keyed := &expr.GroupParam{Idx: gp.Idx, Keys: []expr.Expr{shifted}, Typ: gp.Typ}
	r.uncertainWhere = bin(sqlparser.OpLt, col(2), keyed)
	checkTrialOverlays(t, "param in key", r, n)
}

// TestSlotExprMatchesEval checks the replica kernels' float evaluation
// against expr.Eval on post rows whose slot holds a float or NULL, for
// every operator, both operand orders, integer and float constants,
// zero divisors, infinities and NaN.
func TestSlotExprMatchesEval(t *testing.T) {
	ops := []sqlparser.BinaryOp{sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv,
		sqlparser.OpMod, sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}
	consts := []types.Value{types.NewInt(0), types.NewInt(3), types.NewInt(-2),
		types.NewFloat(0), types.NewFloat(2.5), types.NewFloat(math.NaN())}
	slots := []types.Value{types.Null, types.NewFloat(0), types.NewFloat(3), types.NewFloat(-7.25),
		types.NewFloat(2.5), types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1))}
	col := &expr.Col{Idx: 1} // post row [key, slot]
	check := func(e expr.Expr) {
		k, ok := compileSlotExpr(e, 1)
		if !ok {
			t.Fatalf("%s: not compiled", e)
		}
		for _, v := range slots {
			want := e.Eval(&expr.Ctx{Row: types.Row{types.NewInt(9), v}})
			f, _ := v.AsFloat()
			got, null := k.eval(f, v.IsNull())
			switch {
			case null != want.IsNull():
				t.Fatalf("%s on %v: null %v, want %v", e, v, null, want)
			case null:
			case k.comparison():
				if (got != 0) != want.Truthy() {
					t.Fatalf("%s on %v: %v, want %v", e, v, got, want)
				}
			case want.Kind() != types.KindFloat || math.Float64bits(got) != math.Float64bits(want.Float()):
				t.Fatalf("%s on %v: %v, want %v", e, v, got, want)
			}
		}
	}
	check(col)
	for _, op := range ops {
		for _, c := range consts {
			check(bin(op, col, &expr.Const{V: c}))
			check(bin(op, &expr.Const{V: c}, col))
		}
	}
	for _, e := range []expr.Expr{
		&expr.Col{Idx: 0}, // a key column
		bin(sqlparser.OpAnd, col, col),
		bin(sqlparser.OpAdd, col, col),
		bin(sqlparser.OpGt, col, &expr.Const{V: types.NewString("x")}),
		bin(sqlparser.OpGt, col, &expr.Const{V: types.Null}),
	} {
		if _, ok := compileSlotExpr(e, 1); ok {
			t.Errorf("%s: compiled, want expr.Eval fallback", e)
		}
	}
}
