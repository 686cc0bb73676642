package plan_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"quokka/internal/plan"
	"quokka/internal/tpch"
)

// joins returns every join node reachable from root, each once, build side
// before probe side.
func joins(root *plan.Node) []*plan.Node {
	seen := make(map[*plan.Node]bool)
	var out []*plan.Node
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs {
			walk(in)
		}
		if n.Kind == plan.KindJoin {
			out = append(out, n)
		}
	}
	walk(root)
	return out
}

// TestTPCHBroadcastByRelativeSize: on every cluster size, every Auto join of
// the 22 queries is broadcast iff its build side is estimated at most 25,000
// rows or its probe side at least max(workers, 4) times the build side, and
// it carries the estimates it was chosen from. The joins only the relative
// rule broadcasts are pinned per query: up to 4 workers the same 12, on the
// 16 and 32 workers the paper figures run at the few whose probe side dwarfs
// the build side.
func TestTPCHBroadcastByRelativeSize(t *testing.T) {
	small := map[int]int{2: 1, 3: 1, 5: 1, 7: 1, 8: 2, 16: 1, 17: 1, 18: 2, 20: 1, 21: 1}
	wantFlipped := map[int]map[int]int{
		2:  small,
		4:  small,
		16: {5: 1, 8: 2, 21: 1},
		32: {5: 1, 8: 1},
	}
	for _, workers := range []int{2, 4, 16, 32} {
		flipped := make(map[int]int)
		for _, q := range tpch.QueryNumbers() {
			logical, err := tpch.LogicalQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			auto := 0
			for _, j := range joins(logical) {
				if j.Strategy == plan.Auto {
					auto++
				}
			}
			opt, err := plan.Optimize(logical, tpch.Catalog(1), workers)
			if err != nil {
				t.Fatal(err)
			}
			estimated := 0
			for _, j := range joins(opt) {
				if j.BuildRows == 0 {
					continue
				}
				estimated++
				b, p := j.BuildRows, j.ProbeRows
				want := plan.Shuffle
				if b <= 25_000 || float64(max(workers, 4))*b <= p {
					want = plan.Broadcast
				}
				if j.Strategy != want {
					t.Errorf("%d workers, Q%d: %s is %s, want %s", workers, q, describe(j), j.Strategy, want)
				}
				if j.Strategy == plan.Broadcast && b > 25_000 {
					flipped[q]++
					t.Logf("%d workers, Q%d: broadcast by relative size: %s", workers, q, describe(j))
				}
			}
			if estimated != auto {
				t.Errorf("Q%d: %d joins carry estimates, want its %d Auto joins", q, estimated, auto)
			}
		}
		if !maps.Equal(flipped, wantFlipped[workers]) {
			t.Errorf("%d workers: joins broadcast by relative size per query = %v, want %v", workers, flipped, wantFlipped[workers])
		}
	}
}

func describe(j *plan.Node) string {
	return fmt.Sprintf("join %s build=%v (~%.0f) probe=%v (~%.0f)", j.JoinType, j.BuildKeys, j.BuildRows, j.ProbeKeys, j.ProbeRows)
}

// TestTPCHAggregationsReusePartitioning: an aggregation whose input is already
// hash-partitioned on some of its group keys — Q13's over its join key, and
// the second of Q16's and Q21's two aggregations, whose first routes by the
// second's keys — runs in its producer's task: its stage is fused behind
// another member, with no exchange in between. No other query has one, and
// the 22 queries lower to 185 stages.
func TestTPCHAggregationsReusePartitioning(t *testing.T) {
	const wantStages = 185
	var reused []int
	stages := 0
	for _, q := range tpch.QueryNumbers() {
		p, err := tpch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		stages += len(p.Stages)
		for _, s := range p.Stages {
			if members := strings.Split(s.Name, "▸"); slices.Contains(members[1:], "agg") {
				reused = append(reused, q)
				t.Logf("Q%d: stage %d is %s", q, s.ID, s.Name)
			}
		}
	}
	if want := []int{13, 16, 21}; !slices.Equal(reused, want) {
		t.Errorf("queries with an aggregation fused into its producer = %v, want %v", reused, want)
	}
	if stages != wantStages {
		t.Errorf("the 22 queries lower to %d stages, want %d", stages, wantStages)
	}
}
