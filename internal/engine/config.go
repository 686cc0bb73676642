package engine

import (
	"fmt"
	"time"
)

// ExecutionMode selects pipelined vs stagewise scheduling.
type ExecutionMode uint8

// Execution modes.
const (
	// Pipelined lets a stage consume upstream outputs as soon as their
	// lineage is committed — the paper's dynamic pipelined execution.
	Pipelined ExecutionMode = iota
	// Stagewise blocks a stage until every upstream stage has finished,
	// reproducing SparkSQL's one-stage-at-a-time model (Figure 7 baseline).
	Stagewise
)

func (m ExecutionMode) String() string {
	if m == Stagewise {
		return "stagewise"
	}
	return "pipelined"
}

// FTMode selects the fault-tolerance strategy (Table I of the paper).
type FTMode uint8

// Fault-tolerance modes.
const (
	// FTNone disables intra-query fault tolerance: no lineage log, no
	// backup. A worker failure fails the query (restart baseline).
	FTNone FTMode = iota
	// FTWriteAheadLineage is the paper's contribution: KB-sized lineage
	// records logged to the GCS before outputs are consumable, plus
	// unreliable upstream backup to producer-local disk.
	FTWriteAheadLineage
	// FTSpool durably persists every output partition in the object store
	// (Trino-style). Lineage is still logged so recovery can fetch the
	// right partitions, but rewinds never cascade past the spool.
	FTSpool
	// FTCheckpoint adds periodic operator-state checkpoints to the object
	// store on top of write-ahead lineage (Flink-style, §II-B3).
	FTCheckpoint
)

func (m FTMode) String() string {
	switch m {
	case FTWriteAheadLineage:
		return "write-ahead-lineage"
	case FTSpool:
		return "spool"
	case FTCheckpoint:
		return "checkpoint"
	}
	return "none"
}

// ftCaps is what a fault-tolerance mode does, as capability bits. The mode
// is decided here, once; every downstream site — the persist steps of the
// task path, the commit's write set, poll snapshots, coordination and
// Algorithm 2 — asks for a capability, never for a mode.
type ftCaps uint8

const (
	// capLineage: task lineage is logged to the GCS before outputs are
	// consumable, so a worker loss is recovered instead of failing the query.
	capLineage ftCaps = 1 << iota
	// capBackup: every pushed piece set is kept on the producer's local disk
	// (elided slots as marks; see elidesLocal); recovery replays from it while
	// the producer lives and cascades the rewind when it does not.
	capBackup
	// capSpool: outputs crossing a wide edge are persisted in the durable
	// store before they are pushed; recovery re-feeds them from there on any
	// live worker and never cascades past them.
	capSpool
	// capCheckpoint: operator state is snapshotted to the durable store every
	// CheckpointEveryTasks commits; a rewound channel restarts from it.
	capCheckpoint
)

// ftTable is Table I: what each mode does. An unknown mode does nothing.
var ftTable = map[FTMode]ftCaps{
	FTWriteAheadLineage: capLineage | capBackup,
	FTSpool:             capLineage | capSpool,
	FTCheckpoint:        capLineage | capBackup | capCheckpoint,
}

func (c ftCaps) has(bit ftCaps) bool { return c&bit != 0 }

// elidesLocal reports whether a non-empty piece whose consumer shares its
// producer's worker goes unencoded, handed over as its batch alone. Under
// write-ahead lineage a backup is read only to re-feed a consumer whose worker
// died from a producer whose worker lives, and a channel leaves its worker
// only when that worker dies — so no replay names a piece that was local
// (ROADMAP, "A task's output is serialised at most once"). A spool object is
// read after its writer died, and a checkpoint restart keeps tasks below its
// mark (rs/) whose committer died, so a later cascade can rewind a live
// producer and read a backup beside it: those two keep every piece's bytes.
func (c ftCaps) elidesLocal() bool { return !c.has(capSpool | capCheckpoint) }

// RecoveryMode selects how rewound channels are spread over live workers.
type RecoveryMode uint8

// Recovery modes.
const (
	// RecoveryPipelineParallel assigns rewound channels of different
	// stages to different workers (Quokka, Figure 3 bottom). Parallelism
	// scales with pipeline depth.
	RecoveryPipelineParallel RecoveryMode = iota
	// RecoveryDataParallel spreads rewound channels across workers
	// regardless of stage (Spark, Figure 3 top). Parallelism scales with
	// cluster width; only meaningful for stagewise plans whose channels
	// are independent.
	RecoveryDataParallel
)

func (m RecoveryMode) String() string {
	if m == RecoveryDataParallel {
		return "data-parallel"
	}
	return "pipeline-parallel"
}

// Config controls one query execution.
type Config struct {
	Execution ExecutionMode
	FT        FTMode
	Recovery  RecoveryMode

	// Dynamic task dependencies: a task consumes as many committed
	// upstream outputs as are available (at least MinTake while the
	// producer is still running, at most MaxTake). When Dynamic is false,
	// tasks consume exactly StaticBatch outputs per step (Figure 8's
	// static lineage strategies). The same number, MinTake or StaticBatch,
	// is the run of splits one reader task reads.
	Dynamic     bool
	StaticBatch int
	MinTake     int
	MaxTake     int

	// ComputeScale scales operator kernel throughput relative to the cost
	// model's vectorised-native baseline. 1 (or 0) is DuckDB/Polars-class;
	// the SparkSQL baseline uses a lower value to model row-at-a-time JVM
	// processing, which is a large part of the paper's Figure 6 gap.
	ComputeScale float64

	// CheckpointEveryTasks snapshots stateful operators every N committed
	// tasks under FTCheckpoint.
	CheckpointEveryTasks int

	// ThreadsPerWorker is the number of executor threads per TaskManager.
	// Threads model in-flight tasks, not cores: modelled I/O waits do not
	// consume CPU. CPUPerWorker is the number of CPU slots a worker's
	// modelled kernel work holds, one per charge, so it shapes modelled
	// time only: in real time (TimeScale ≤ 0) no slot is taken, and results
	// never depend on it. Cores are a property of the worker machine, not
	// of a query: the first query executed on a cluster sizes each worker's
	// shared slot pool from its CPUPerWorker, and concurrently running
	// queries share that pool — a later query's differing CPUPerWorker does
	// not resize it.
	ThreadsPerWorker int
	CPUPerWorker     int

	// MemoryBudget caps the accounted operator state bytes per worker
	// (hash join builds, aggregation group tables, sort buffers). 0 means
	// unlimited — the spill subsystem is off entirely and operators run
	// fully in memory, exactly as before. When set, operators whose state
	// would exceed the worker's shared budget spill through the local-disk
	// cost model (Grace-hash partitions for join/agg, external merge runs
	// for sort) and produce byte-identical outputs: spilling never changes
	// task output content or order, which is what keeps write-ahead
	// lineage replay sound without making spill decisions deterministic.
	// Spill partitions come from the TOP bits of the 64-bit key hash, so
	// they never interact with a hash edge's `hash mod channels` routing.
	MemoryBudget int64

	// Parallelism has no effect. Every operator runs serially inside its
	// channel, and a stage's parallelism is its channel count
	// (Stage.Parallelism). The field stays because the struct's fields are
	// frozen (PUBLIC_API.md).
	Parallelism int

	// CursorBufferBytes bounds the head-node buffer of committed-but-unread
	// output partitions while a streaming Cursor is attached to the query.
	// Deliveries beyond the bound are refused and the producing tasks stay
	// pending, so a slow consumer backpressures the output stage through
	// the normal task-retry machinery. 0 uses DefaultCursorBufferBytes;
	// negative disables the bound. Ignored without a cursor (the one-shot
	// Result path buffers everything, as it must).
	CursorBufferBytes int64

	// PollInterval bounds what a lost wake-up costs: a worker's idle watcher
	// waits for the query's namespace to move and rescans regardless after 16
	// of these, which is also when an event that is no commit (a cursor
	// draining the head's buffer) is noticed at the latest.
	PollInterval time.Duration

	// HeartbeatInterval bounds how long a death, which commits nothing, goes
	// unnoticed: the coordinator runs on every commit and at least this often.
	HeartbeatInterval time.Duration
}

// DefaultConfig returns the paper's Quokka configuration: dynamic
// pipelined execution with write-ahead lineage and pipeline-parallel
// recovery.
func DefaultConfig() Config {
	return Config{
		Execution:            Pipelined,
		FT:                   FTWriteAheadLineage,
		Recovery:             RecoveryPipelineParallel,
		Dynamic:              true,
		MinTake:              8,
		MaxTake:              64,
		StaticBatch:          8,
		CheckpointEveryTasks: 4,
		ThreadsPerWorker:     8,
		CPUPerWorker:         2,
		PollInterval:         200 * time.Microsecond,
		HeartbeatInterval:    2 * time.Millisecond,
	}
}

// SparkConfig returns the SparkSQL stand-in: stagewise execution, lineage
// with upstream backup (Spark's native strategy) and data-parallel
// recovery.
func SparkConfig() Config {
	c := DefaultConfig()
	c.Execution = Stagewise
	c.Recovery = RecoveryDataParallel
	// JVM row-at-a-time processing vs vectorised native kernels: Spark's
	// Tungsten sustains a few hundred MB/s/core on TPC-H operators where
	// DuckDB/Polars sustain closer to a GB/s. This engine-quality gap is
	// part of what Figure 6 measures (the paper itself attributes the 2x
	// to "blocking vs pipelined execution" plus kernel differences).
	c.ComputeScale = 0.35
	return c
}

// TrinoConfig returns the Trino stand-in: pipelined execution with static
// task dependencies and durable spooling to the cluster's object store.
func TrinoConfig() Config {
	c := DefaultConfig()
	c.Dynamic = false
	c.FT = FTSpool
	return c
}

// clusterOptions are the cluster-level settings a query inherits: what the
// Configure options write and resolve reads. The zero value is the built-in
// behaviour.
type clusterOptions struct {
	tracing bool // WithTracing
}

// Policy is one query's effective settings: the caller's Config with every
// floor and default filled in — so CursorBufferBytes is never 0 (negative =
// no bound) — plus the cluster-level options as they stood at submit time.
// resolve builds it once; the Runner keeps it and WorkerQuerySpec ships it
// whole, so the head and every worker process run one query under one
// policy and nothing downstream re-derives a default.
type Policy struct {
	Config

	// Tracing attaches a flight recorder to the query.
	Tracing bool
}

// resolve turns a caller's Config and the cluster's options into the
// query's Policy. This is the one place a default or floor is applied: an
// unset (<= 0) field takes its DefaultConfig value.
func resolve(cfg Config, o clusterOptions) (Policy, error) {
	if !cfg.Dynamic && cfg.StaticBatch <= 0 {
		return Policy{}, fmt.Errorf("engine: static dependency mode requires StaticBatch > 0")
	}
	d := DefaultConfig()
	unset := func(v *int, def int) {
		if *v <= 0 {
			*v = def
		}
	}
	unset(&cfg.MaxTake, d.MaxTake)
	// MinTake floors at 1, not at the default 8: 8 is a tuning for pipelined
	// TPC-H, while an unset MinTake has always meant "take whatever is
	// committed" — hand-built Configs in tests and ablations rely on it.
	unset(&cfg.MinTake, 1)
	cfg.MinTake = min(cfg.MinTake, cfg.MaxTake)
	unset(&cfg.ThreadsPerWorker, d.ThreadsPerWorker)
	unset(&cfg.CPUPerWorker, d.CPUPerWorker)
	unset(&cfg.CheckpointEveryTasks, d.CheckpointEveryTasks)
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = d.PollInterval
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = d.HeartbeatInterval
	}
	if cfg.CursorBufferBytes == 0 {
		cfg.CursorBufferBytes = DefaultCursorBufferBytes
	}
	return Policy{Config: cfg, Tracing: o.tracing}, nil
}

// runLen is the take a task waits for while its producer runs — MinTake,
// or a full StaticBatch under the static policy — and the run of splits
// one reader task reads.
func (p Policy) runLen() int {
	if !p.Dynamic {
		return p.StaticBatch
	}
	return p.MinTake
}
