package tpch

import (
	"quokka/internal/engine"
	"quokka/internal/plan"
)

// NaiveQuery lowers query n exactly as typed — no pushdown, no pruning,
// no fusion, no partial aggregation, Auto joins shuffling: the planner
// equivalence suite's witness.
func NaiveQuery(n int) (*engine.Plan, error) {
	node, err := LogicalQuery(n)
	if err != nil {
		return nil, err
	}
	if err := plan.Bind(node, Catalog(1)); err != nil {
		return nil, err
	}
	return plan.Lower(node, plan.Naive)
}
