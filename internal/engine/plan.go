// Package engine implements the paper's contribution: a distributed
// pipelined push-based query engine with dynamic task dependencies, made
// fault tolerant by write-ahead lineage (Algorithm 1) with pipeline-
// parallel recovery (Algorithm 2). It also implements every baseline the
// paper evaluates against: stagewise (Spark-like) execution with data-
// parallel recovery, static task dependencies (Trino-like), durable
// spooling, and state checkpointing.
package engine

import (
	"fmt"

	"quokka/internal/ops"
)

// PartitionKind selects how a producer's output is routed to the channels
// of a consumer stage.
type PartitionKind uint8

// Partitioning kinds.
const (
	// PartitionHash routes rows by hashing key columns; equal keys land on
	// the same consumer channel.
	PartitionHash PartitionKind = iota
	// PartitionBroadcast copies the whole output to every consumer channel
	// (small build sides).
	PartitionBroadcast
	// PartitionSingle sends everything to channel 0 (final sorts, global
	// aggregates).
	PartitionSingle
	// PartitionDirect keeps data on the producer's channel index (modulo
	// the consumer's parallelism): the zero-shuffle narrow dependency. The
	// Optimized lowering fuses a consumer it alone feeds into the
	// producer's stage, so it is left at shared producers and broadcast
	// join probe sides.
	PartitionDirect
)

// Partitioning describes one edge's routing.
type Partitioning struct {
	Kind PartitionKind
	Keys []string
}

// Hash returns hash partitioning on the given keys.
func Hash(keys ...string) Partitioning { return Partitioning{Kind: PartitionHash, Keys: keys} }

// Broadcast returns broadcast partitioning.
func Broadcast() Partitioning { return Partitioning{Kind: PartitionBroadcast} }

// Single returns all-to-channel-0 partitioning.
func Single() Partitioning { return Partitioning{Kind: PartitionSingle} }

// Direct returns producer-channel-aligned partitioning (narrow edge).
func Direct() Partitioning { return Partitioning{Kind: PartitionDirect} }

// StageInput is one input edge of a stage: which upstream stage feeds it,
// how its output is partitioned across this stage's channels, and the
// consumption phase. A stage's tasks must exhaust all phase-p edges before
// consuming any phase-(p+1) edge — the hash-join pipeline breaker (build
// before probe).
type StageInput struct {
	Stage int
	Part  Partitioning
	Phase int
}

// ReaderSpec marks a stage as an input reader over an object-store table.
// A reader task reads a run of R splits, R being the take a consumer waits
// for (Policy.runLen: MinTake, or StaticBatch under the static policy):
// run k of channel c of a stage with parallelism P is entries
// c + (kR+i)·P, i < R, of the split list — the Splits survivor list when
// the planner pruned, which is part of the plan. The run follows from the
// channel's cursor and the plan alone, so a rewound reader re-reads the
// same physical splits and logs nothing. A reader stage with an Op runs
// each split's batch through it in the same task.
type ReaderSpec struct {
	Table string
	// Splits is the zone-map pruning survivor list: the physical split
	// indexes to read, ascending. nil means all splits (no pruning ran); a
	// non-nil empty list means every split was pruned.
	Splits []int
	// TotalSplits is the table's physical split count when pruning ran
	// (0 when Splits is nil), recorded for metrics and EXPLAIN.
	TotalSplits int
	// Cols, when non-nil, names the only columns the plan consumes from
	// this table (output columns plus predicate inputs); the reader skips
	// decoding the rest.
	Cols []string
}

// Stage is one pipeline stage: a reader, an operator over inputs, or a
// reader whose splits run through an operator (a fused narrow chain, the
// plan's ops.Chain or a single spec).
type Stage struct {
	ID          int
	Name        string
	Reader      *ReaderSpec
	Op          ops.Spec
	Parallelism int // 0 means the cluster default (one channel per worker)
	Inputs      []StageInput
	// Detail is a human-readable description of the logical node this stage
	// implements (the lowerer fills it from the optimizer's node rendering).
	// Purely informational — EXPLAIN ANALYZE prints it next to the actuals.
	Detail string
}

// Plan is a DAG of stages. Stage IDs must equal their index. Exactly one
// stage (the output stage) must have no consumers.
type Plan struct {
	Stages []*Stage
}

// NewPlan validates and returns a plan over the given stages.
func NewPlan(stages ...*Stage) (*Plan, error) {
	p := &Plan{Stages: stages}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustPlan is NewPlan panicking on error; for static plan builders.
func MustPlan(stages ...*Stage) *Plan {
	p, err := NewPlan(stages...)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks structural invariants: contiguous IDs, a reader, inputs
// or a reader plus an operator, edges referencing earlier stages only (the
// DAG is given in topological order), and a unique output stage.
func (p *Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("engine: empty plan")
	}
	for i, s := range p.Stages {
		if s.ID != i {
			return fmt.Errorf("engine: stage at index %d has ID %d", i, s.ID)
		}
		switch {
		case s.Reader != nil && len(s.Inputs) != 0:
			return fmt.Errorf("engine: reader stage %d cannot have inputs", i)
		case s.Reader == nil && s.Op == nil:
			return fmt.Errorf("engine: stage %d has neither a Reader nor an Op", i)
		case s.Reader == nil && len(s.Inputs) == 0:
			return fmt.Errorf("engine: compute stage %d has no inputs", i)
		}
		for e, in := range s.Inputs {
			if in.Stage < 0 || in.Stage >= i {
				return fmt.Errorf("engine: stage %d input %d references stage %d (must be an earlier stage)", i, e, in.Stage)
			}
		}
	}
	if _, err := p.OutputStage(); err != nil {
		return err
	}
	return nil
}

// OutputStage returns the unique stage no other stage consumes.
func (p *Plan) OutputStage() (int, error) {
	consumed := make([]bool, len(p.Stages))
	for _, s := range p.Stages {
		for _, in := range s.Inputs {
			consumed[in.Stage] = true
		}
	}
	out := -1
	for i, c := range consumed {
		if c {
			continue
		}
		if out != -1 {
			return -1, fmt.Errorf("engine: stages %d and %d are both unconsumed; plans need a single output stage", out, i)
		}
		out = i
	}
	if out == -1 {
		return -1, fmt.Errorf("engine: no output stage")
	}
	return out, nil
}

// Edge is a derived consumer edge of a stage: consumer stage To reads this
// stage's output on input index Input with the given partitioning.
type Edge struct {
	To    int
	Input int
	Part  Partitioning
}

// Consumers returns the consumer edges of the given stage, in (To, Input)
// order.
func (p *Plan) Consumers(stage int) []Edge {
	var out []Edge
	for _, s := range p.Stages {
		for e, in := range s.Inputs {
			if in.Stage == stage {
				out = append(out, Edge{To: s.ID, Input: e, Part: in.Part})
			}
		}
	}
	return out
}

// Parallelism resolves a stage's channel count against the cluster default.
func (p *Plan) Parallelism(stage, def int) int {
	if n := p.Stages[stage].Parallelism; n > 0 {
		return n
	}
	return def
}
