package core

import (
	"math"

	"fluodb/internal/agg"
	"fluodb/internal/exec"
	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/sqlparser"
	"fluodb/internal/types"
)

// overlays is a copy-on-write view of an onlineTable with the runner's
// uncertain set folded in (DESIGN.md §18): either the point overlay
// (main states, point bindings, weight 1) or the overlays of bootstrap
// trials 0..n-1, built together in one row-major pass. Every group key an
// uncertain row reaches gets one slot shared by all trials; cell
// (slot, trial) starts from the group's base state — the main state for
// the point overlay, trial j's replica otherwise — the first time a row
// of that trial folds into it.
type overlays struct {
	b     *plan.Block
	base  *onlineTable
	point bool // the point overlay (n = 1 over the main states)
	n, na int
	index map[string]int32 // key → slot
	slots []overlaySlot
	// touched[s*n+j] marks cell (s, j) as folded into.
	touched []bool
	// Banked tables: per-aggregate weight and value accumulators with the
	// bank's semantics (onlineEntry.mainW/mainV, bankW/bankV), laid out
	// [slot][agg][trial] so a key's replica vector reads at trial stride.
	w, v []float64
	// Generic tables: cloned states per cell, [s*n+j].
	states [][]agg.State
	// extra lists the cells (s*n+j) of overlay-only keys in first-touch
	// order; filtered to one trial it is that trial's overlay key order.
	extra []int32
	// cellKey holds the key row of a cell first reached by a row whose
	// key values differ from the slot's yet share its canonical key
	// string (1 and 1.0): each trial's overlay keeps its own first row's.
	cellKey map[int32]types.Row
}

type overlaySlot struct {
	key  types.Row
	skey string
	be   *onlineEntry // nil for keys only uncertain rows reach
}

// overlayScratch is the per-build key and argument scratch.
type overlayScratch struct {
	keyRow types.Row
	cols   []int
	args   []types.Value
}

func (r *blockRunner) newOverlays(n int, point bool) (*overlays, overlayScratch) {
	b := r.b
	o := &overlays{b: b, base: r.tab, point: point, n: n, na: len(b.Aggs), index: map[string]int32{}}
	sc := overlayScratch{
		keyRow: make(types.Row, len(b.GroupBy)),
		cols:   make([]int, len(b.GroupBy)),
		args:   make([]types.Value, len(b.Aggs)),
	}
	for i := range sc.cols {
		sc.cols[i] = i
	}
	return o, sc
}

// pointOverlay folds the whole uncertain set, under the point bindings
// and with weight 1, over the main states: the current point estimate
// of every group.
func (r *blockRunner) pointOverlay() *overlays {
	o, sc := r.newOverlays(1, true)
	ctx := r.eng.bind.pointCtx(nil)
	b := r.b
	for i := range r.uncertain {
		ctx.Row = r.uncertain[i].row
		if r.uncertainWhere != nil && !r.uncertainWhere.Eval(ctx).Truthy() {
			continue
		}
		for gi, g := range b.GroupBy {
			sc.keyRow[gi] = g.Eval(ctx)
		}
		for ai := range b.Aggs {
			sc.args[ai] = b.Aggs[ai].Arg.Eval(ctx)
		}
		o.fold(o.slotFor(sc.keyRow, sc.cols), 0, sc.keyRow, sc.args, 1)
	}
	return o
}

// trialOverlays builds the overlays of trials 0..n-1 in one pass over
// sampledUncertain(). Per row, the group key and the param-free
// aggregate arguments are evaluated once; the uncertain predicate is
// evaluated for every trial with a positive weight under env, whose
// param memo resolves each correlation key once per row. Rows fold into
// each (trial, group) cell in cache order — the order a separate pass
// per trial folds them — so every cell is bit-identical to that pass.
func (r *blockRunner) trialOverlays(n int, env *trialEnv) *overlays {
	o, sc := r.newOverlays(n, false)
	rows := r.sampledUncertain()
	if len(rows) == 0 || n == 0 {
		return o
	}
	b := r.b
	keyFixed := true
	for _, g := range b.GroupBy {
		keyFixed = keyFixed && !expr.HasParams(g)
	}
	argFixed := make([]bool, o.na)
	for i := range b.Aggs {
		argFixed[i] = !expr.HasParams(b.Aggs[i].Arg)
	}
	for _, ui := range rows {
		u := &r.uncertain[ui]
		env.row(u.row)
		slot, argsDone := int32(-1), false
		for j := 0; j < n; j++ {
			if u.weights[j] == 0 {
				continue
			}
			ctx := env.at(j)
			if r.uncertainWhere != nil && !r.uncertainWhere.Eval(ctx).Truthy() {
				continue
			}
			if slot < 0 || !keyFixed {
				for i, g := range b.GroupBy {
					sc.keyRow[i] = g.Eval(ctx)
				}
				slot = o.slotFor(sc.keyRow, sc.cols)
			}
			for i := range b.Aggs {
				if !argsDone || !argFixed[i] {
					sc.args[i] = b.Aggs[i].Arg.Eval(ctx)
				}
			}
			argsDone = true
			o.fold(slot, j, sc.keyRow, sc.args, float64(u.weights[j])*u.repW)
		}
	}
	return o
}

// slotFor returns the slot of a group key, creating it on first sight.
func (o *overlays) slotFor(keyRow types.Row, cols []int) int32 {
	skey := keyRow.KeyString(cols)
	if s, ok := o.index[skey]; ok {
		return s
	}
	s := int32(len(o.slots))
	o.index[skey] = s
	o.slots = append(o.slots, overlaySlot{key: keyRow.Clone(), skey: skey, be: o.base.m[skey]})
	o.touched = append(o.touched, make([]bool, o.n)...)
	if o.base.banked {
		o.w = append(o.w, make([]float64, o.na*o.n)...)
		o.v = append(o.v, make([]float64, o.na*o.n)...)
	} else {
		o.states = append(o.states, make([][]agg.State, o.n)...)
	}
	return s
}

// baseTrial maps cell trial j to the base state it overlays (-1 = main).
func (o *overlays) baseTrial(j int) int {
	if o.point {
		return -1
	}
	return j
}

// touch initializes cell (s, j) from the base group's state, or empty
// for an overlay-only key.
func (o *overlays) touch(s int32, j int, keyRow types.Row) {
	c := int(s)*o.n + j
	o.touched[c] = true
	sl := &o.slots[s]
	if !sameValues(sl.key, keyRow) {
		if o.cellKey == nil {
			o.cellKey = map[int32]types.Row{}
		}
		o.cellKey[int32(c)] = keyRow.Clone()
	}
	be := sl.be
	if be == nil {
		o.extra = append(o.extra, int32(c))
		if !o.base.banked {
			o.states[c] = newEntryStates(o.b)
		}
		return
	}
	if !o.base.banked {
		src := be.main
		if !o.point {
			src = be.reps[j]
		}
		st := make([]agg.State, len(src))
		for i, x := range src {
			st[i] = x.Clone()
		}
		o.states[c] = st
		return
	}
	tb := o.base
	at := int(s)*o.na*o.n + j
	for i := 0; i < o.na; i++ {
		if o.point {
			o.w[at+i*o.n], o.v[at+i*o.n] = be.mainW[i], be.mainV[i]
		} else {
			o.w[at+i*o.n] = be.bankW[tb.bankW(i)*tb.trials+j]
			o.v[at+i*o.n] = be.bankV[tb.bankV(i)*tb.trials+j]
		}
	}
}

// fold adds one row's aggregate arguments into cell (s, j) with weight
// wt. Banked cells gate and accumulate exactly as the State views of
// the bank (agg.CountStateOf/SumStateOf/AvgStateOf) would: a SUM cell's
// weight only records that a value was seen.
func (o *overlays) fold(s int32, j int, keyRow types.Row, args []types.Value, wt float64) {
	c := int(s)*o.n + j
	if !o.touched[c] {
		o.touch(s, j, keyRow)
	}
	if !o.base.banked {
		for i, st := range o.states[c] {
			st.Add(args[i], wt)
		}
		return
	}
	at := int(s)*o.na*o.n + j
	for i, k := range o.base.cltKinds {
		x := at + i*o.n
		if k == cltCount {
			if !args[i].IsNull() {
				o.w[x] += wt
			}
		} else if f, ok := args[i].AsFloat(); ok {
			o.v[x] += f * wt
			o.w[x] += wt
		}
	}
}

// keys lists trial j's group keys: base order, then the keys only its
// uncertain rows created, in creation order.
func (o *overlays) keys(j int) []string {
	if len(o.extra) == 0 {
		return o.base.order
	}
	out := append([]string(nil), o.base.order...)
	for _, c := range o.extra {
		if int(c)%o.n == j {
			out = append(out, o.slots[int(c)/o.n].skey)
		}
	}
	return out
}

// lookup resolves a key to its slot (-1 when no uncertain row reached
// it) and its base entry (nil when absent).
func (o *overlays) lookup(key string) (int32, *onlineEntry) {
	if s, ok := o.index[key]; ok {
		return s, o.slots[s].be
	}
	return -1, o.base.m[key]
}

// postAt writes trial j's post-aggregate row [keys..., results...] of a
// key resolved by lookup into buf: the overlay cell when trial j folded
// into it, otherwise the base state. A trial overlay only reports groups
// with bootstrap evidence: a base group without subsampled tuples has
// empty replicas, which must never be misread as values.
func (o *overlays) postAt(s int32, be *onlineEntry, j int, scale float64, buf types.Row) (types.Row, bool) {
	if s >= 0 && o.touched[int(s)*o.n+j] {
		return o.cellPost(s, j, scale, buf), true
	}
	if be == nil || (!o.point && be.ns == 0) {
		return buf, false
	}
	return o.base.postInto(be, o.baseTrial(j), scale, buf), true
}

// solePostInto is trial j's post row of a global block's single group
// (its first key, evidence or not; empty states when there is none).
func (o *overlays) solePostInto(j int, scale float64, buf types.Row) types.Row {
	if len(o.base.order) > 0 {
		s, be := o.lookup(o.base.order[0])
		if s >= 0 && o.touched[int(s)*o.n+j] {
			return o.cellPost(s, j, scale, buf)
		}
		return o.base.postInto(be, o.baseTrial(j), scale, buf)
	}
	for _, c := range o.extra {
		if int(c)%o.n == j {
			return o.cellPost(c/int32(o.n), j, scale, buf)
		}
	}
	return exec.PostRowInto(o.b, &exec.GroupEntry{States: newEntryStates(o.b)}, scale, buf)
}

// cellPost writes cell (s, j)'s post row [keys..., results...] into buf.
func (o *overlays) cellPost(s int32, j int, scale float64, buf types.Row) types.Row {
	c := int(s)*o.n + j
	key := o.slots[s].key
	if o.cellKey != nil {
		if k, ok := o.cellKey[int32(c)]; ok {
			key = k
		}
	}
	buf = append(buf[:0], key...)
	if !o.base.banked {
		for _, st := range o.states[c] {
			buf = append(buf, st.Result(scale))
		}
		return buf
	}
	at := int(s)*o.na*o.n + j
	for i, k := range o.base.cltKinds {
		buf = append(buf, bankValue(k, o.w[at+i*o.n], o.v[at+i*o.n], scale))
	}
	return buf
}

// sameValues reports whether two rows hold identical values (kind and
// payload), stricter than canonical-key equality.
func sameValues(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// slotVal is one trial's result of one aggregate slot: ok is false
// without bootstrap evidence, null marks SQL NULL.
type slotVal struct {
	f        float64
	null, ok bool
}

// slotResults fills out[j] (j < n) with trial j's result of aggregate i
// of a banked table's trial overlays, for a key resolved by lookup: the
// overlay cell when trial j folded into it, otherwise the base bank
// under postAt's evidence rule. Both are read at trial stride.
func (t *overlays) slotResults(s int32, be *onlineEntry, i int, scale float64, out []slotVal) {
	k := t.base.cltKinds[i]
	var bw, bv, cw, cv []float64
	var touched []bool
	if be != nil && be.ns > 0 {
		tb := t.base
		bw = be.bankW[tb.bankW(i)*tb.trials:]
		bv = be.bankV[tb.bankV(i)*tb.trials:]
	}
	if s >= 0 {
		at := (int(s)*t.na + i) * t.n
		cw, cv = t.w[at:at+t.n], t.v[at:at+t.n]
		touched = t.touched[int(s)*t.n : (int(s)+1)*t.n]
	}
	for j := range out {
		switch {
		case touched != nil && touched[j]:
			f, null := bankResult(k, cw[j], cv[j], scale)
			out[j] = slotVal{f: f, null: null, ok: true}
		case bw != nil:
			f, null := bankResult(k, bw[j], bv[j], scale)
			out[j] = slotVal{f: f, null: null, ok: true}
		default:
			out[j] = slotVal{}
		}
	}
}

// slotExpr is an expression over a post-aggregate row that reads one
// aggregate slot, alone or against one numeric constant: the shape of
// correlated selects (0.5 * AVG(x)) and HAVING thresholds
// (SUM(x) > 170). Replica kernels evaluate it on the slot's float
// exactly as expr.Eval does on a row whose slot holds a float or NULL —
// a banked result always does — and fall back to expr.Eval otherwise.
type slotExpr struct {
	slot      int // post-row column
	bare      bool
	op        sqlparser.BinaryOp
	c         float64
	constLeft bool
}

// compileSlotExpr recognizes a slotExpr reading an aggregate slot (a
// column at or past groupWidth).
func compileSlotExpr(e expr.Expr, groupWidth int) (slotExpr, bool) {
	aggCol := func(x expr.Expr) (int, bool) {
		if c, ok := x.(*expr.Col); ok && c.Idx >= groupWidth {
			return c.Idx, true
		}
		return 0, false
	}
	if c, ok := aggCol(e); ok {
		return slotExpr{slot: c, bare: true}, true
	}
	bin, ok := e.(*expr.Binary)
	if !ok {
		return slotExpr{}, false
	}
	switch bin.Op {
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod,
		sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
	default:
		return slotExpr{}, false
	}
	numConst := func(x expr.Expr) (float64, bool) {
		k, ok := x.(*expr.Const)
		if !ok || (k.V.Kind() != types.KindInt && k.V.Kind() != types.KindFloat) {
			return 0, false
		}
		f, _ := k.V.AsFloat()
		return f, true
	}
	if c, ok := aggCol(bin.L); ok {
		if f, ok := numConst(bin.R); ok {
			return slotExpr{slot: c, op: bin.Op, c: f}, true
		}
	}
	if c, ok := aggCol(bin.R); ok {
		if f, ok := numConst(bin.L); ok {
			return slotExpr{slot: c, op: bin.Op, c: f, constLeft: true}, true
		}
	}
	return slotExpr{}, false
}

// comparison reports whether the expression yields a boolean.
func (k slotExpr) comparison() bool {
	return !k.bare && k.op >= sqlparser.OpEq && k.op <= sqlparser.OpGe
}

// eval applies the expression to the slot's float f: a float result for
// arithmetic (null on NULL input or a zero divisor, as evalArith), the
// truth of a comparison (Compare's float ordering; false on NULL).
func (k slotExpr) eval(f float64, null bool) (float64, bool) {
	if null {
		return 0, true
	}
	if k.bare {
		return f, false
	}
	a, b := f, k.c
	if k.constLeft {
		a, b = b, a
	}
	switch k.op {
	case sqlparser.OpAdd:
		return a + b, false
	case sqlparser.OpSub:
		return a - b, false
	case sqlparser.OpMul:
		return a * b, false
	case sqlparser.OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, false
	case sqlparser.OpMod:
		if b == 0 {
			return 0, true
		}
		return math.Mod(a, b), false
	}
	cmp := 0
	if a < b {
		cmp = -1
	} else if a > b {
		cmp = 1
	}
	var truth bool
	switch k.op {
	case sqlparser.OpEq:
		truth = cmp == 0
	case sqlparser.OpNe:
		truth = cmp != 0
	case sqlparser.OpLt:
		truth = cmp < 0
	case sqlparser.OpLe:
		truth = cmp <= 0
	case sqlparser.OpGt:
		truth = cmp > 0
	default: // OpGe
		truth = cmp >= 0
	}
	if truth {
		return 1, false
	}
	return 0, false
}
