package plan

import (
	"sort"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/ops"
)

// DefaultBroadcastRows is the estimated-build-side row threshold below which
// an Auto join becomes a broadcast join: dimension-table-sized build sides
// are cheaper to replicate than to shuffle the (much larger) probe side for.
const DefaultBroadcastRows = 25_000

// maxPushdownPasses bounds the pushdown fixpoint loop; filters only ever
// move down, so the bound is never hit on well-formed plans.
const maxPushdownPasses = 64

// Optimize runs the rule pipeline over a logical plan and returns the
// rewritten DAG (the input tree is not mutated, and subtree sharing is
// preserved so lowering still emits shared stages once):
//
//  1. constant folding in every expression (internal/expr.Fold)
//  2. predicate pushdown through project/join/agg/sort to the scans
//  3. adjacent projection merging
//  4. projection pruning (only columns a downstream operator needs
//     survive each node)
//  5. broadcast selection for Auto joins from catalog row statistics
//  6. split pruning: each scan's fused predicate folds against the
//     catalog's per-split zone maps (when the catalog serves SplitStats),
//     dropping splits no row of which can match
//
// Every pass is a pure function of the tree and the catalog, so the same
// query always produces the same plan — the determinism write-ahead-
// lineage replay relies on. The rules only change which columns and rows
// flow; key encoding and `hash mod P` routing are untouched.
func Optimize(root *Node, cat Catalog) (*Node, error) {
	// Work on a private clone: Bind writes schemas into nodes, and the
	// caller's DAG may be shared across frames and across concurrent
	// Collect/Explain calls — the user's tree must stay untouched.
	root = cloneDAG(root)
	if err := Bind(root, cat); err != nil {
		return nil, err
	}
	root = foldConstants(root)
	if err := Bind(root, cat); err != nil {
		return nil, err
	}
	for i := 0; i < maxPushdownPasses; i++ {
		next, changed := pushFiltersOnce(root)
		if !changed {
			break
		}
		root = next
		if err := Bind(root, cat); err != nil {
			return nil, err
		}
	}
	root = mergeProjects(root)
	if err := Bind(root, cat); err != nil {
		return nil, err
	}
	root = pruneColumns(root)
	if err := Bind(root, cat); err != nil {
		return nil, err
	}
	root = chooseStrategies(root, cat)
	if err := Bind(root, cat); err != nil {
		return nil, err
	}
	root = pruneSplits(root, cat)
	if err := Bind(root, cat); err != nil {
		return nil, err
	}
	return root, nil
}

// pruneSplits folds each scan's fused predicate against the catalog's
// per-split zone maps and records the surviving splits on the scan node.
// Catalogs without SplitStats (or tables without zone maps) leave every
// scan untouched. The pass only changes which rows flow — a pruned split
// is one the predicate would have filtered entirely — and is deterministic
// (zone maps are immutable split metadata), so replanning for replay
// rebuilds the identical survivor list.
func pruneSplits(root *Node, cat Catalog) *Node {
	zc, ok := cat.(SplitStats)
	if !ok {
		return root
	}
	return rewrite(root, func(n *Node, ins []*Node) *Node {
		out := withInputs(n, ins)
		if n.Kind != KindScan || n.Pred == nil || n.Splits != nil {
			return out
		}
		zms, err := zc.TableZoneMaps(n.Table)
		if err != nil || len(zms) == 0 {
			return out // no statistics; keep every split
		}
		survivors := make([]int, 0, len(zms))
		for i, zm := range zms {
			if zm == nil || splitMayMatch(n.Pred, zm) {
				survivors = append(survivors, i)
			}
		}
		if len(survivors) == len(zms) {
			return out // nothing pruned; don't annotate
		}
		cp := out.shallowCopy()
		cp.Splits = survivors
		cp.TotalSplits = len(zms)
		return cp
	})
}

// cloneDAG copies every node reachable from root, preserving subtree
// sharing. Expressions and key slices are immutable by convention and
// stay shared.
func cloneDAG(root *Node) *Node {
	return rewrite(root, func(n *Node, ins []*Node) *Node {
		cp := n.shallowCopy()
		cp.Inputs = ins
		return cp
	})
}

// rewrite rebuilds the DAG bottom-up through f, memoizing by node pointer
// so shared subtrees stay shared. f receives the original node and its
// already-rewritten inputs and must return either a replacement or n
// itself (withInputs handles the unchanged-vs-new-inputs bookkeeping).
func rewrite(root *Node, f func(n *Node, ins []*Node) *Node) *Node {
	memo := make(map[*Node]*Node)
	var visit func(n *Node) *Node
	visit = func(n *Node) *Node {
		if r, ok := memo[n]; ok {
			return r
		}
		ins := make([]*Node, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = visit(in)
		}
		out := f(n, ins)
		memo[n] = out
		return out
	}
	return visit(root)
}

// withInputs returns n unchanged when the inputs are identical, or a
// shallow copy wired to the new inputs.
func withInputs(n *Node, ins []*Node) *Node {
	same := true
	for i := range ins {
		if ins[i] != n.Inputs[i] {
			same = false
			break
		}
	}
	if same {
		return n
	}
	cp := n.shallowCopy()
	cp.Inputs = ins
	return cp
}

// foldConstants applies expr.Fold to every expression in the plan and
// drops filters whose predicate folded to literal true.
func foldConstants(root *Node) *Node {
	return rewrite(root, func(n *Node, ins []*Node) *Node {
		out := withInputs(n, ins)
		switch n.Kind {
		case KindScan, KindFilter:
			if n.Pred == nil {
				return out
			}
			folded := expr.Fold(n.Pred)
			if n.Kind == KindFilter {
				if l, ok := folded.(expr.Lit); ok && l.Type == batch.Bool && l.Bool {
					return ins[0] // WHERE true: drop the filter
				}
			}
			if sameExpr(folded, n.Pred) && out == n {
				return n
			}
			cp := out.shallowCopy()
			cp.Pred = folded
			return cp
		case KindProject:
			exprs := make([]ops.NamedExpr, len(n.Exprs))
			changed := false
			for i, ne := range n.Exprs {
				exprs[i] = ops.NamedExpr{Name: ne.Name, Expr: expr.Fold(ne.Expr)}
				changed = changed || !sameExpr(exprs[i].Expr, ne.Expr)
			}
			if !changed && out == n {
				return n
			}
			cp := out.shallowCopy()
			cp.Exprs = exprs
			return cp
		case KindAgg:
			aggs := make([]ops.AggExpr, len(n.Aggs))
			changed := false
			for i, a := range n.Aggs {
				aggs[i] = a
				if a.Of != nil {
					aggs[i].Of = expr.Fold(a.Of)
					changed = changed || !sameExpr(aggs[i].Of, a.Of)
				}
			}
			if !changed && out == n {
				return n
			}
			cp := out.shallowCopy()
			cp.Aggs = aggs
			return cp
		}
		return out
	})
}

// sameExpr is a cheap identity check used to preserve node identity when
// folding was a no-op (rendering is canonical for these trees).
func sameExpr(a, b expr.Expr) bool { return a.String() == b.String() }

// conjuncts flattens nested AND connectives into a conjunct list.
func conjuncts(e expr.Expr) []expr.Expr {
	if be, ok := e.(expr.BoolExpr); ok && be.IsAnd {
		var out []expr.Expr
		for _, a := range be.Args {
			out = append(out, conjuncts(a)...)
		}
		return out
	}
	return []expr.Expr{e}
}

// conjoin reassembles a conjunct list into a predicate.
func conjoin(list []expr.Expr) expr.Expr {
	if len(list) == 1 {
		return list[0]
	}
	return expr.And(list...)
}

// colsWithin reports whether every column e reads exists in s.
func colsWithin(e expr.Expr, s *batch.Schema) bool {
	for _, c := range expr.Columns(e) {
		if s.Index(c) < 0 {
			return false
		}
	}
	return true
}

// pushFiltersOnce moves every filter one step down where legal and
// reports whether anything changed. The legality rules:
//
//   - through a projection: always (substitute the projected definitions
//     into the predicate; expressions are pure)
//   - into a scan: merged into the scan's fused predicate
//   - through a join: conjuncts over probe columns move to the probe side
//     (all join types); conjuncts over build columns move to the build
//     side for inner joins only (left-outer keeps unmatched probe rows
//     whose build columns are synthetic zeros, so build filters must run
//     after the join)
//   - through an aggregation: conjuncts over group keys only
//   - through a sort: only without a LIMIT (filter does not commute with
//     top-k)
//   - never into a subtree with more than one consumer
func pushFiltersOnce(root *Node) (*Node, bool) {
	counts := refCounts(root)
	changed := false
	out := rewrite(root, func(n *Node, ins []*Node) *Node {
		if n.Kind != KindFilter || counts[n.Inputs[0]] > 1 {
			return withInputs(n, ins)
		}
		child := ins[0]
		switch child.Kind {
		case KindScan:
			cp := child.shallowCopy()
			if cp.Pred == nil {
				cp.Pred = n.Pred
			} else {
				cp.Pred = conjoin(append(conjuncts(cp.Pred), conjuncts(n.Pred)...))
			}
			changed = true
			return cp
		case KindFilter:
			merged := child.shallowCopy()
			merged.Pred = conjoin(append(conjuncts(child.Pred), conjuncts(n.Pred)...))
			changed = true
			return merged
		case KindProject:
			defs := make(map[string]expr.Expr, len(child.Exprs))
			for _, ne := range child.Exprs {
				defs[ne.Name] = ne.Expr
			}
			pushed := Filter(child.Inputs[0], expr.Substitute(n.Pred, defs))
			cp := child.shallowCopy()
			cp.Inputs = []*Node{pushed}
			changed = true
			return cp
		case KindJoin:
			return pushThroughJoin(n, child, &changed)
		case KindAgg:
			if len(child.Keys) == 0 || child.Inputs[0].schema == nil {
				// Unbound inputs appear when a lower push created fresh
				// nodes this pass; the next pass (after rebinding) retries.
				return withInputs(n, ins)
			}
			keySchema := child.Inputs[0].schema.Select(child.Keys...)
			var below, keep []expr.Expr
			for _, c := range conjuncts(n.Pred) {
				if colsWithin(c, keySchema) {
					below = append(below, c)
				} else {
					keep = append(keep, c)
				}
			}
			if len(below) == 0 {
				return withInputs(n, ins)
			}
			cp := child.shallowCopy()
			cp.Inputs = []*Node{Filter(child.Inputs[0], conjoin(below))}
			changed = true
			if len(keep) == 0 {
				return cp
			}
			return Filter(cp, conjoin(keep))
		case KindSort:
			if child.Limit > 0 {
				return withInputs(n, ins)
			}
			cp := child.shallowCopy()
			cp.Inputs = []*Node{Filter(child.Inputs[0], n.Pred)}
			changed = true
			return cp
		}
		return withInputs(n, ins)
	})
	return out, changed
}

// pushThroughJoin routes a filter's conjuncts to the join sides that can
// evaluate them.
func pushThroughJoin(f *Node, join *Node, changed *bool) *Node {
	buildS, probeS := join.Inputs[0].schema, join.Inputs[1].schema
	if buildS == nil || probeS == nil {
		// Fresh nodes from a lower push this pass; retry after rebinding.
		return withInputs(f, []*Node{join})
	}
	buildOK := join.JoinType == ops.InnerJoin // see pushFiltersOnce doc
	var toProbe, toBuild, keep []expr.Expr
	for _, c := range conjuncts(f.Pred) {
		switch {
		case colsWithin(c, probeS):
			toProbe = append(toProbe, c)
		case buildOK && colsWithin(c, buildS):
			toBuild = append(toBuild, c)
		default:
			keep = append(keep, c)
		}
	}
	if len(toProbe) == 0 && len(toBuild) == 0 {
		return withInputs(f, []*Node{join})
	}
	cp := join.shallowCopy()
	if len(toBuild) > 0 {
		cp.Inputs[0] = Filter(cp.Inputs[0], conjoin(toBuild))
	}
	if len(toProbe) > 0 {
		cp.Inputs[1] = Filter(cp.Inputs[1], conjoin(toProbe))
	}
	*changed = true
	if len(keep) == 0 {
		return cp
	}
	return Filter(cp, conjoin(keep))
}

// mergeProjects composes adjacent projections (bottom-up, so whole chains
// collapse in one pass). Only single-consumer children merge: absorbing a
// shared projection would duplicate it for its other consumers.
func mergeProjects(root *Node) *Node {
	counts := refCounts(root)
	return rewrite(root, func(n *Node, ins []*Node) *Node {
		if n.Kind != KindProject || counts[n.Inputs[0]] > 1 {
			return withInputs(n, ins)
		}
		child := ins[0]
		if child.Kind != KindProject {
			return withInputs(n, ins)
		}
		defs := make(map[string]expr.Expr, len(child.Exprs))
		for _, ne := range child.Exprs {
			defs[ne.Name] = ne.Expr
		}
		exprs := make([]ops.NamedExpr, len(n.Exprs))
		for i, ne := range n.Exprs {
			exprs[i] = ops.NamedExpr{Name: ne.Name, Expr: expr.Substitute(ne.Expr, defs)}
		}
		return Project(child.Inputs[0], exprs...)
	})
}

// pruneColumns narrows every node to the columns some consumer actually
// needs: scans list only surviving columns, projections drop dead
// outputs, and wide join/agg/sort outputs feeding another join or sort
// get an explicit pruning projection so dead columns never cross a
// shuffle. Requirements are collected over the whole DAG first (a shared
// subtree keeps the union of its consumers' needs).
func pruneColumns(root *Node) *Node {
	required := collectRequired(root)
	// prunedKeep picks the required columns of n in schema order; at least
	// one column always survives (operators need rows even when only a
	// count is observed).
	prunedKeep := func(n *Node) []string {
		req := required[n]
		var keep []string
		for _, f := range n.schema.Fields {
			if _, ok := req[f.Name]; ok {
				keep = append(keep, f.Name)
			}
		}
		if len(keep) == 0 {
			keep = []string{n.schema.Fields[0].Name}
		}
		return keep
	}
	// One pruning projection per pruned node, shared by every consumer
	// edge (required sets are per node, so the wrap is identical — a
	// shared wide frame must not be projected once per consumer).
	wraps := make(map[*Node]*Node)
	return rewrite(root, func(n *Node, ins []*Node) *Node {
		// Wrap wide join/agg/sort inputs of shuffle-bound consumers with a
		// pruning projection. Scans, filters and projections narrow
		// themselves below.
		if n.Kind == KindJoin || n.Kind == KindSort || n.Kind == KindAgg {
			for i, orig := range n.Inputs {
				switch orig.Kind {
				case KindJoin, KindAgg, KindSort:
					keep := prunedKeep(orig)
					if len(keep) < orig.schema.Len() {
						w, ok := wraps[orig]
						if !ok {
							w = Project(ins[i], ops.KeepCols(keep...)...)
							wraps[orig] = w
						}
						ins[i] = w
					}
				}
			}
		}
		switch n.Kind {
		case KindScan:
			keep := prunedKeep(n)
			if n.Cols == nil && len(keep) == n.schema.Len() {
				return n
			}
			cp := n.shallowCopy()
			cp.Cols = keep
			return cp
		case KindProject:
			req := required[n]
			var exprs []ops.NamedExpr
			for _, ne := range n.Exprs {
				if _, ok := req[ne.Name]; ok {
					exprs = append(exprs, ne)
				}
			}
			if len(exprs) == 0 {
				exprs = n.Exprs[:1]
			}
			if len(exprs) == len(n.Exprs) {
				return withInputs(n, ins)
			}
			cp := withInputs(n, ins).shallowCopy()
			cp.Exprs = exprs
			return cp
		}
		return withInputs(n, ins)
	})
}

// collectRequired propagates needed-column sets top-down over the DAG:
// the root needs everything it produces; every other node needs the union
// of what its consumers read from it.
func collectRequired(root *Node) map[*Node]map[string]struct{} {
	required := make(map[*Node]map[string]struct{})
	need := func(n *Node, cols ...string) {
		set := required[n]
		if set == nil {
			set = make(map[string]struct{})
			required[n] = set
		}
		for _, c := range cols {
			set[c] = struct{}{}
		}
	}
	for _, f := range root.schema.Fields {
		need(root, f.Name)
	}
	for _, n := range topoOrder(root) {
		req := required[n]
		switch n.Kind {
		case KindFilter:
			in := n.Inputs[0]
			need(in, setToSlice(req)...)
			need(in, expr.Columns(n.Pred)...)
		case KindProject:
			in := n.Inputs[0]
			for _, ne := range n.Exprs {
				if _, ok := req[ne.Name]; ok {
					need(in, expr.Columns(ne.Expr)...)
				}
			}
			if len(req) == 0 {
				// Degenerate consumer (e.g. a bare count(*)): the first
				// output survives pruning, so its inputs must too.
				need(in, expr.Columns(n.Exprs[0].Expr)...)
			}
			need(in) // ensure the entry exists
		case KindJoin:
			build, probe := n.Inputs[0], n.Inputs[1]
			need(build, n.BuildKeys...)
			need(probe, n.ProbeKeys...)
			for _, c := range setToSlice(req) {
				if probe.schema.Index(c) >= 0 {
					need(probe, c)
				} else if build.schema.Index(c) >= 0 {
					need(build, c)
				}
				// __matched is synthesized by the join itself.
			}
		case KindAgg:
			in := n.Inputs[0]
			need(in, n.Keys...)
			for _, a := range n.Aggs {
				if a.Of != nil {
					need(in, expr.Columns(a.Of)...)
				}
			}
			need(in)
		case KindSort:
			in := n.Inputs[0]
			need(in, setToSlice(req)...)
			for _, k := range n.SortKeys {
				need(in, k.Col)
			}
		}
	}
	return required
}

func setToSlice(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// chooseStrategies resolves every Auto join: broadcast when the catalog's
// row statistics estimate the build side under the threshold, shuffle
// otherwise. Estimates use table row counts scaled by textbook predicate
// selectivities (see estimateRows); any choice is correct — only which
// side crosses the network changes — so crude estimates are safe.
func chooseStrategies(root *Node, cat Catalog) *Node {
	est := newEstimator(cat)
	return rewrite(root, func(n *Node, ins []*Node) *Node {
		out := withInputs(n, ins)
		if n.Kind != KindJoin || n.Strategy != Auto {
			return out
		}
		cp := out.shallowCopy()
		cp.Strategy = Shuffle
		if rows, ok := est.rows(n.Inputs[0]); ok && rows <= DefaultBroadcastRows {
			cp.Strategy = Broadcast
		}
		return cp
	})
}
