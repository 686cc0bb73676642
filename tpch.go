package quokka

import (
	"context"

	"quokka/internal/plan"
	"quokka/internal/tpch"
)

// LoadTPCH generates the eight TPC-H tables at the given scale factor and
// loads them into the cluster's object store. splitRows controls the
// split granularity (0 uses the default). Generation is deterministic.
func LoadTPCH(c *Cluster, sf float64, splitRows int) {
	tpch.Load(c.inner.ObjStore, tpch.Generate(sf), splitRows)
}

// tpchPlan optimizes TPC-H query q against the cluster's own catalog, so
// broadcast selection sees the actually-loaded row counts.
func tpchPlan(c *Cluster, q int) (*plan.Node, error) {
	node, err := tpch.LogicalQuery(q)
	if err != nil {
		return nil, err
	}
	return plan.Optimize(node, plan.NewStoreCatalog(c.inner.ObjStore))
}

// RunTPCH executes TPC-H query q (1..22) on the cluster to completion:
// SubmitTPCH followed by Result.
func RunTPCH(ctx context.Context, c *Cluster, q int, cfg RunConfig) (*Result, error) {
	h, err := SubmitTPCH(ctx, c, q, cfg)
	if err != nil {
		return nil, err
	}
	return h.Result()
}

// SubmitTPCH starts TPC-H query q (1..22) on the cluster and returns its
// handle without waiting. Any number of TPC-H queries may be submitted
// concurrently on one cluster.
func SubmitTPCH(ctx context.Context, c *Cluster, q int, cfg RunConfig) (*Query, error) {
	opt, err := tpchPlan(c, q)
	if err != nil {
		return nil, err
	}
	phys, err := plan.Lower(opt, plan.Optimized)
	if err != nil {
		return nil, err
	}
	h, err := submitPlan(ctx, c, phys, cfg)
	if err != nil {
		return nil, err
	}
	h.explain = plan.Explain(opt)
	return h, nil
}

// ExplainTPCH renders the optimized logical plan of TPC-H query q against
// the cluster's catalog, without executing it.
func ExplainTPCH(c *Cluster, q int) (string, error) {
	opt, err := tpchPlan(c, q)
	if err != nil {
		return "", err
	}
	return plan.Explain(opt), nil
}

// ExplainTPCHPlan renders the optimized plan of TPC-H query q planned
// against the benchmark's catalog statistics at scale factor sf — no
// cluster, no data generation. The quokka CLI's -explain uses it.
func ExplainTPCHPlan(q int, sf float64) (string, error) {
	return tpch.ExplainAt(q, sf)
}

// TPCHQueries lists the implemented TPC-H query numbers (1..22).
func TPCHQueries() []int { return tpch.QueryNumbers() }

// TPCHRepresentative lists the paper's eight ablation queries: simple
// aggregations (1, 6), simple pipelined joins (3, 10) and multi-join
// pipelines (5, 7, 8, 9).
func TPCHRepresentative() []int {
	return append([]int(nil), tpch.RepresentativeQueries...)
}
