package plan_test

import (
	"testing"

	"quokka/internal/engine"
	"quokka/internal/tpch"
)

// TestFusionLeavesOnlyNeededDirectEdges: the Optimized lowering of the 22
// TPC-H queries fuses every narrow chain, so a Direct edge is left only where
// a stage cannot join its producer's task — at a producer other stages also
// consume, or on a broadcast join's probe side, whose stage has a second
// input — and every one joins equal parallelism. The count pins how many.
func TestFusionLeavesOnlyNeededDirectEdges(t *testing.T) {
	const wantDirect = 53
	direct, stages := 0, 0
	for _, q := range tpch.QueryNumbers() {
		p, err := tpch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		stages += len(p.Stages)
		for _, s := range p.Stages {
			for e, in := range s.Inputs {
				if in.Part.Kind != engine.PartitionDirect {
					continue
				}
				direct++
				shared := len(p.Consumers(in.Stage)) > 1
				probe := len(s.Inputs) == 2 && s.Inputs[1-e].Part.Kind == engine.PartitionBroadcast
				if !shared && !probe {
					t.Errorf("Q%d: stage %d (%s) reads stage %d (%s) by an unfused Direct edge",
						q, s.ID, s.Name, in.Stage, p.Stages[in.Stage].Name)
				}
				if up := p.Stages[in.Stage].Parallelism; up != s.Parallelism {
					t.Errorf("Q%d: Direct edge %d -> %d joins parallelism %d to %d", q, in.Stage, s.ID, up, s.Parallelism)
				}
			}
		}
	}
	t.Logf("%d stages, %d Direct edges over the 22 queries", stages, direct)
	if direct != wantDirect {
		t.Errorf("%d Direct edges left over the 22 queries, want %d", direct, wantDirect)
	}
}
