// Package ops implements the vectorised relational operators the query
// engine schedules: filter, project, hash join (inner/left/semi/anti),
// hash aggregation (partial and final), sort and top-k. These play
// the role DuckDB and Polars play as single-node kernels in the paper's
// Quokka.
//
// Operators are deterministic: given the same sequence of Consume calls
// they produce byte-identical outputs. The engine's write-ahead lineage
// recovery depends on this — a rewound channel re-fed its logged inputs
// must regenerate exactly the partitions it produced before the failure
// (§III of the paper).
package ops

import (
	"quokka/internal/batch"
)

// Operator consumes batches on numbered inputs and emits output batches.
// Stateful operators accumulate across Consume calls; Finalize flushes any
// remaining output once every input is exhausted. Implementations are not
// safe for concurrent use by multiple callers; the engine runs each
// channel's tasks serially, as the paper requires, and a stage's
// parallelism is its channel count.
type Operator interface {
	// Consume processes one batch from the given input index and returns
	// zero or more output batches.
	Consume(input int, b *batch.Batch) ([]*batch.Batch, error)
	// Finalize is called exactly once, after all inputs are exhausted.
	Finalize() ([]*batch.Batch, error)
}

// Snapshotter is implemented by stateful operators that support the
// checkpointing fault-tolerance baseline (§II-B3). Snapshot serializes the
// operator's state variable; Restore reconstructs it; StateBytes reports
// the current state size, which for join builds and aggregations grows
// with the number of distinct keys seen — the paper's argument for why
// naive checkpointing costs O(N²) in total bytes written.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
	StateBytes() int64
}

// Spec creates a fresh Operator instance for one channel of a stage. Specs
// must be reusable (a rewound channel gets a new instance) and must produce
// operators with identical behaviour each time.
type Spec interface {
	// New instantiates the operator for one channel. channel and channels
	// let per-channel operators (e.g. round-robin readers) know their slot.
	New(channel, channels int) Operator
	// Name identifies the operator in plans and logs.
	Name() string
}

// single wraps one batch in a slice, dropping nil/empty batches.
func single(b *batch.Batch) []*batch.Batch {
	if b == nil || b.NumRows() == 0 {
		return nil
	}
	return []*batch.Batch{b}
}
