package expr

import "fluodb/internal/types"

// ParamMemo binds GroupParam and SetParam nodes to bootstrap-trial
// replica vectors: a node resolves its correlation key to the whole
// vector and yields element Ctx.Trial. Evaluating one row under many
// trials then builds each key and fetches each vector once per row, on
// the node's first reach; NextRow invalidates the memo whenever Ctx.Row
// changes.
//
// Entries are keyed by node identity, not by param index, so two nodes
// sharing an index but computing their keys from different expressions
// resolve separately. A node whose key expressions themselves read
// params is re-resolved on every evaluation, since its key may differ
// by trial.
type ParamMemo struct {
	// Groups[i] returns group param i's replica vector for a key, or nil
	// when the key is unknown.
	Groups []func(key string) []types.Value
	// Sets[i] returns set param i's per-trial membership for a key, or
	// nil when the key is unknown.
	Sets []func(key string) []bool

	gen   uint64
	nodes []memoEntry
}

// memoEntry is one param node's resolution for the current row.
type memoEntry struct {
	node   Expr
	fixed  bool   // the key depends on the row only
	gen    uint64 // row generation the resolution belongs to
	null   bool   // SetParam: the probed value is NULL
	vals   []types.Value
	member []bool
}

// NextRow invalidates every memoized resolution.
func (m *ParamMemo) NextRow() { m.gen++ }

// entry returns node's memo entry, creating it (stale) on first sight.
func (m *ParamMemo) entry(node Expr) *memoEntry {
	for i := range m.nodes {
		if m.nodes[i].node == node {
			return &m.nodes[i]
		}
	}
	fixed := true
	switch x := node.(type) {
	case *GroupParam:
		for _, k := range x.Keys {
			fixed = fixed && !HasParams(k)
		}
	case *SetParam:
		fixed = !HasParams(x.X)
	}
	m.nodes = append(m.nodes, memoEntry{node: node, fixed: fixed, gen: m.gen - 1})
	return &m.nodes[len(m.nodes)-1]
}

// group evaluates p under trial ctx.Trial.
func (m *ParamMemo) group(p *GroupParam, ctx *Ctx) types.Value {
	if p.Idx < 0 || p.Idx >= len(m.Groups) || m.Groups[p.Idx] == nil {
		return types.Null
	}
	en := m.entry(p)
	if !en.fixed || en.gen != m.gen {
		vals := m.Groups[p.Idx](p.KeyString(ctx))
		en = m.entry(p) // the lookup may have grown m.nodes through nested evaluation
		en.vals, en.gen = vals, m.gen
	}
	if en.vals == nil {
		return types.Null
	}
	return en.vals[ctx.Trial]
}

// set evaluates s under trial ctx.Trial.
func (m *ParamMemo) set(s *SetParam, ctx *Ctx) types.Value {
	en := m.entry(s)
	if !en.fixed || en.gen != m.gen {
		x := s.X.Eval(ctx)
		null := x.IsNull() || s.Idx < 0 || s.Idx >= len(m.Sets) || m.Sets[s.Idx] == nil
		var member []bool
		if !null {
			member = m.Sets[s.Idx](types.KeyString1(x))
		}
		en = m.entry(s)
		en.null, en.member, en.gen = null, member, m.gen
	}
	if en.null {
		return types.Null
	}
	return types.NewBool((en.member != nil && en.member[ctx.Trial]) != s.Negated)
}
