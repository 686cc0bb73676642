package plan

import (
	"slices"

	"quokka/internal/batch"
	"quokka/internal/engine"
	"quokka/internal/expr"
	"quokka/internal/ops"
)

// Mode selects how a logical plan lowers to engine stages.
type Mode uint8

// Lowering modes.
const (
	// Optimized lowering expects an Optimize'd tree: scans carry their
	// pushed predicate and pruned column list into a map behind the reader,
	// aggregations split into a partial stage on the producer's channels
	// plus a shuffled final merge (aggregation pushdown), and join
	// strategies are taken as resolved. It tracks which columns each
	// stage's output is hash-partitioned on: an aggregation whose input is
	// already partitioned on some of its group keys is one final aggregate
	// on its producer's channels, with no exchange, and a keyed aggregation
	// whose only consumer aggregates on a subset of its keys routes by that
	// subset, so the consumer needs none either (partitioning reuse). A
	// Direct child takes its producer's parallelism, and every
	// single-consumer stage reached by a Direct edge fuses into its
	// producer (fuse): a task is drawn only where lineage is needed.
	Optimized Mode = iota
	// Naive lowering emits exactly one stage per logical node, the way the
	// user typed the query: no fusion, no partial aggregation, Auto joins
	// shuffle. It is the baseline the planner benchmark compares against,
	// and what lineage replay determinism is trivially preserved by.
	Naive
	// Unpartitioned is Optimized lowering without partitioning reuse: every
	// keyed aggregation exchanges its input and routes by all its keys. Only
	// tests use it, as the baseline the data-movement guard compares
	// against.
	Unpartitioned
)

// Lower compiles a bound logical plan into the engine's physical plan.
// Shared subtrees lower to shared stages (emitted once, consumed by every
// parent edge). Stage construction for the DataFrame API lives entirely
// behind this function: the planner decides which columns and rows flow,
// while key encoding and `hash mod P` routing stay the operators' pinned
// contract.
func Lower(root *Node, mode Mode) (*engine.Plan, error) {
	l := &lowerer{mode: mode, memo: make(map[*Node]int)}
	if mode == Optimized {
		l.parts, l.routes = make(map[int][]string), subsetRoutes(root)
	}
	l.lower(root)
	if mode == Naive {
		return engine.NewPlan(l.stages...)
	}
	return engine.NewPlan(fuse(l.stages)...)
}

type lowerer struct {
	mode   Mode
	stages []*engine.Stage
	memo   map[*Node]int
	// parts maps a stage to the columns its output is hash-partitioned on at
	// the default parallelism (absent: none known), and routes a keyed
	// aggregation to the subset of its keys its final stage routes by
	// (subsetRoutes). Both are nil, and no partitioning is reused, unless
	// the lowering is Optimized.
	parts  map[int][]string
	routes map[*Node][]string
}

// add appends a stage. Unless lowering naively, a Direct child takes its
// producer's parallelism, so every Direct edge joins equal channel counts: a
// select over a global aggregate keeps no empty channels, and fuses.
func (l *lowerer) add(s *engine.Stage) int {
	if l.mode != Naive {
		for _, in := range s.Inputs {
			if in.Part.Kind == engine.PartitionDirect {
				s.Parallelism = l.stages[in.Stage].Parallelism
			}
		}
	}
	s.ID = len(l.stages)
	l.stages = append(l.stages, s)
	return s.ID
}

// partitioned records that stage id's output is hash-partitioned on keys.
func (l *lowerer) partitioned(id int, keys []string) int {
	if l.parts != nil && keys != nil {
		l.parts[id] = keys
	}
	return id
}

func direct(stage int) []engine.StageInput {
	return []engine.StageInput{{Stage: stage, Part: engine.Direct()}}
}

func (l *lowerer) lower(n *Node) int {
	if id, ok := l.memo[n]; ok {
		return id
	}
	var id int
	switch n.Kind {
	case KindScan:
		id = l.lowerScan(n)
	case KindFilter:
		id = l.lowerFilter(n)
	case KindProject:
		id = l.lowerProject(n)
	case KindJoin:
		id = l.lowerJoin(n)
	case KindAgg:
		id = l.lowerAgg(n)
	case KindSort:
		id = l.lowerSort(n)
	}
	l.memo[n] = id
	return id
}

// reader emits the bare table-reader stage of a scan, carrying the
// planner's split survivor list (zone-map pruning) and the column set the
// plan consumes (so the reader skips decoding dropped column payloads).
func (l *lowerer) reader(n *Node) int {
	return l.add(&engine.Stage{Name: "scan-" + n.Table, Detail: n.describe(), Reader: &engine.ReaderSpec{
		Table:       n.Table,
		Splits:      n.Splits,
		TotalSplits: n.TotalSplits,
		Cols:        readCols(n),
	}})
}

// readCols returns the columns the reader must decode: the scan's output
// columns plus any predicate-only inputs (the pushed predicate binds
// against the full table schema, so its columns need not survive into the
// scan's output). nil means every column is consumed.
func readCols(n *Node) []string {
	if n.Cols == nil {
		return nil
	}
	out := append([]string(nil), n.Cols...)
	if n.Pred == nil {
		return out
	}
	set := make(map[string]bool, len(out))
	for _, c := range out {
		set[c] = true
	}
	for _, c := range expr.Columns(n.Pred) {
		if !set[c] {
			set[c] = true
			out = append(out, c)
		}
	}
	return out
}

// scanKeep returns the scan's output column list (pruned or full).
func scanKeep(n *Node) []string {
	if n.Cols != nil {
		return n.Cols
	}
	cols := make([]string, n.schema.Len())
	for i, f := range n.schema.Fields {
		cols[i] = f.Name
	}
	return cols
}

func (l *lowerer) lowerScan(n *Node) int {
	r := l.reader(n)
	if n.Pred == nil && n.Cols == nil {
		return r
	}
	// The pushed predicate and pruned column list run in one map behind the
	// reader.
	return l.add(&engine.Stage{
		Name:   "map",
		Detail: n.describe(),
		Op:     ops.NewFilterProjectSpec(n.Pred, ops.KeepCols(scanKeep(n)...)...),
		Inputs: direct(r),
	})
}

func (l *lowerer) lowerFilter(n *Node) int {
	in := l.lower(n.Inputs[0])
	return l.partitioned(l.add(&engine.Stage{
		Name:   "filter",
		Detail: n.describe(),
		Op:     ops.NewFilterSpec(n.Pred),
		Inputs: direct(in),
	}), l.parts[in])
}

func (l *lowerer) lowerProject(n *Node) int {
	in := l.lower(n.Inputs[0])
	id := l.add(&engine.Stage{
		Name:   "select",
		Detail: n.describe(),
		Op:     ops.NewProjectSpec(n.Exprs...),
		Inputs: direct(in),
	})
	if passesOn(n, l.parts[in]) {
		l.partitioned(id, l.parts[in])
	}
	return id
}

// passesOn reports whether projection p outputs each of cols as itself, so a
// partitioning on them survives it.
func passesOn(p *Node, cols []string) bool {
	for _, c := range cols {
		if !slices.Contains(p.Exprs, ops.NE(c, expr.C(c))) {
			return false
		}
	}
	return true
}

// lowerJoin routes both sides of a shuffled join by their keys, so its
// output is partitioned on the probe keys; a broadcast join's output keeps
// its probe side's partitioning, as its rows stay on their channel.
func (l *lowerer) lowerJoin(n *Node) int {
	build := l.lower(n.Inputs[0])
	probe := l.lower(n.Inputs[1])
	bPart, pPart, part := engine.Hash(n.BuildKeys...), engine.Hash(n.ProbeKeys...), n.ProbeKeys
	if n.Strategy == Broadcast {
		bPart, pPart, part = engine.Broadcast(), engine.Direct(), l.parts[probe]
	}
	return l.partitioned(l.add(&engine.Stage{
		Name:   "join",
		Detail: n.describe(),
		Op:     ops.NewHashJoinSpec(n.JoinType, n.BuildKeys, n.ProbeKeys),
		Inputs: []engine.StageInput{
			{Stage: build, Part: bPart, Phase: 0},
			{Stage: probe, Part: pPart, Phase: 1},
		},
	}), part)
}

// aggPartition returns the final-stage routing of an aggregation: grouped
// aggregations hash-partition so each channel owns its groups; global
// ones run on a single channel.
func aggPartition(keys []string) (engine.Partitioning, int) {
	if len(keys) > 0 {
		return engine.Hash(keys...), 0
	}
	return engine.Single(), 1
}

func (l *lowerer) lowerAgg(n *Node) int {
	in := l.lower(n.Inputs[0])
	// The binder's static aggregate output types feed the operator's
	// empty-input default row (an unseen aggregate state cannot know an int sum
	// from a float one).
	defaults := make([]batch.Type, len(n.Aggs))
	for i := range n.Aggs {
		defaults[i] = n.schema.Fields[len(n.Keys)+i].Type
	}
	if part := l.parts[in]; len(n.Keys) > 0 && part != nil && subset(part, n.Keys) {
		// Every group already lives on one channel of the input: aggregate it
		// there, in the producer's task, with no partial stage and no exchange.
		return l.partitioned(l.add(&engine.Stage{
			Name:   "agg",
			Detail: n.describe(),
			Op:     ops.NewHashAggTypedSpec(n.Keys, defaults, n.Aggs...),
			Inputs: direct(in),
		}), part)
	}
	part, parallelism := aggPartition(n.Keys)
	if route, ok := l.routes[n]; ok {
		part = engine.Hash(route...)
	}
	if l.mode == Naive {
		return l.add(&engine.Stage{
			Name:        "agg",
			Detail:      n.describe(),
			Op:          ops.NewHashAggTypedSpec(n.Keys, defaults, n.Aggs...),
			Parallelism: parallelism,
			Inputs:      []engine.StageInput{{Stage: in, Part: part}},
		})
	}
	// Aggregation pushdown: a partial aggregate on the producer's channels
	// (narrow edge), then only the per-channel partial states cross the
	// shuffle to the final merge. The partial spec suppresses the global
	// aggregate's empty-input default row — producer channels that saw no
	// rows must contribute nothing, or their zero states (typed Float64 by
	// the unseen aggregate state) would corrupt min/max/int-sum merges; the final
	// stage still emits the default row when every channel was empty.
	partial := l.add(&engine.Stage{
		Name:   "agg-partial",
		Detail: "partial " + n.describe(),
		Op:     ops.NewHashAggPartialSpec(n.Keys, n.Aggs...),
		Inputs: direct(in),
	})
	merged := make([]ops.AggExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		switch a.Kind {
		case ops.AggSum, ops.AggCount, ops.AggCountStar:
			merged[i] = ops.Sum(a.Name, expr.C(a.Name))
		case ops.AggMin:
			merged[i] = ops.Min(a.Name, expr.C(a.Name))
		case ops.AggMax:
			merged[i] = ops.Max(a.Name, expr.C(a.Name))
		}
	}
	return l.partitioned(l.add(&engine.Stage{
		Name:        "agg",
		Detail:      n.describe(),
		Op:          ops.NewHashAggTypedSpec(n.Keys, defaults, merged...),
		Parallelism: parallelism,
		Inputs:      []engine.StageInput{{Stage: partial, Part: part}},
	}), part.Keys)
}

// subsetRoutes maps each keyed aggregation whose only consumer is an
// aggregation on a strict subset of its keys — through filters and
// projections that pass that subset on, none of them shared — to that
// subset. Routing its final stage by the subset leaves the consumer's input
// partitioned on the consumer's own keys, so the consumer aggregates in
// place. The walk follows the DAG's topological order, so the map's
// contents, not its order, are all that reaches the plan.
func subsetRoutes(root *Node) map[*Node][]string {
	counts := refCounts(root)
	routes := make(map[*Node][]string)
	for _, n := range topoOrder(root) {
		if n.Kind != KindAgg || len(n.Keys) == 0 {
			continue
		}
		in := n.Inputs[0]
		for counts[in] == 1 && (in.Kind == KindFilter || in.Kind == KindProject && passesOn(in, n.Keys)) {
			in = in.Inputs[0]
		}
		if counts[in] == 1 && in.Kind == KindAgg && len(n.Keys) < len(in.Keys) && subset(n.Keys, in.Keys) {
			routes[in] = n.Keys
		}
	}
	return routes
}

// subset reports whether every column of sub is in set.
func subset(sub, set []string) bool {
	for _, c := range sub {
		if !slices.Contains(set, c) {
			return false
		}
	}
	return true
}

func (l *lowerer) lowerSort(n *Node) int {
	in := l.lower(n.Inputs[0])
	var spec ops.Spec
	if n.Limit > 0 {
		spec = ops.NewTopKSpec(n.Limit, n.SortKeys...)
	} else {
		spec = ops.NewSortSpec(n.SortKeys...)
	}
	return l.add(&engine.Stage{
		Name:        "sort",
		Detail:      n.describe(),
		Op:          spec,
		Parallelism: 1,
		Inputs:      []engine.StageInput{{Stage: in, Part: engine.Single()}},
	})
}

// fuse folds every stage whose one input is a Direct edge from a producer it
// alone consumes into that producer (add gave it the producer's parallelism):
// the pair runs as one operator chain in one task (ops.Chain), its name and
// detail the members' joined by "▸". What is left of Direct edges is a shared
// producer's and a broadcast join's probe side. Stage IDs are renumbered;
// the order stays topological, as a member's consumers come after its
// chain's first stage.
func fuse(stages []*engine.Stage) []*engine.Stage {
	consumers := make([]int, len(stages))
	for _, s := range stages {
		for _, in := range s.Inputs {
			consumers[in.Stage]++
		}
	}
	var out []*engine.Stage
	at := make([]int, len(stages)) // a lowered stage's fused stage
	for i, s := range stages {
		if in := s.Inputs; len(in) == 1 && in[0].Part.Kind == engine.PartitionDirect && consumers[in[0].Stage] == 1 {
			f := out[at[in[0].Stage]]
			f.Name += "▸" + s.Name
			f.Detail += " ▸ " + s.Detail
			switch op := f.Op.(type) {
			case nil:
				f.Op = s.Op
			case ops.Chain:
				f.Op = ops.Chain{Members: append(op.Members, s.Op)}
			default:
				f.Op = ops.Chain{Members: []ops.Spec{op, s.Op}}
			}
			at[i] = f.ID
			continue
		}
		for e := range s.Inputs {
			s.Inputs[e].Stage = at[s.Inputs[e].Stage]
		}
		s.ID, at[i] = len(out), len(out)
		out = append(out, s)
	}
	return out
}
