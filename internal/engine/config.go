package engine

import (
	"fmt"
	"time"

	"quokka/internal/storage"
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
	// capBackup: every pushed piece set is kept on the producer's local disk;
	// recovery replays from it while the producer lives and cascades the
	// rewind when it does not.
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

// needsSharedStore reports whether the mode writes through Runner.spool.
// That store is private to the process that built the runner, so such a
// query cannot be split across worker processes: each would spool into,
// and recover from, a store the others cannot see.
func (c ftCaps) needsSharedStore() bool { return c.has(capSpool | capCheckpoint) }

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
	// static lineage strategies).
	Dynamic     bool
	StaticBatch int
	MinTake     int
	MaxTake     int

	// SpoolProfile selects where FTSpool persists partitions (S3 or
	// HDFS). Trino's production default is HDFS.
	SpoolProfile storage.Profile

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
	// consume CPU. CPUPerWorker bounds concurrently modelled *compute*.
	// Cores are a property of the worker machine, not of a query: the
	// first query executed on a cluster sizes each worker's shared CPU
	// slot pool from its CPUPerWorker, and concurrently running queries
	// share that pool — a later query's differing CPUPerWorker does not
	// resize it. The value only shapes modelled timing, never results.
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
	// Spill partitions come from the TOP bits of the 64-bit key hash and
	// never touch the `hash mod P` routing contract (GCS "opp" key).
	MemoryBudget int64

	// Parallelism is the number of hash partitions each stateful operator
	// (hash join, grouped hash aggregation) splits its state into;
	// partitions build/probe/accumulate concurrently on the worker's CPU
	// slots. 0 derives it from CPUPerWorker. 1 forces the serial operator
	// path. The value is recorded in the GCS at query seed time and must
	// stay fixed across recoveries: partition assignment is a pure function
	// of key hash mod Parallelism, and write-ahead lineage replay relies on
	// rebuilding identical per-partition state.
	Parallelism int

	// CursorBufferBytes bounds the head-node buffer of committed-but-unread
	// output partitions while a streaming Cursor is attached to the query.
	// Deliveries beyond the bound are refused and the producing tasks stay
	// pending, so a slow consumer backpressures the output stage through
	// the normal task-retry machinery. 0 uses DefaultCursorBufferBytes;
	// negative disables the bound. Ignored without a cursor (the one-shot
	// Result path buffers everything, as it must).
	CursorBufferBytes int64

	// LineageFlushInterval controls group-commit of task lineage: instead
	// of one GCS transaction per task commit, each query's commits are
	// batched into a single transaction per flush. 0 (the default) inherits
	// the cluster's WithLineageFlushInterval option, falling back to
	// opportunistic batching — no added latency, commits queued while a
	// flush transaction is in flight fold into the next one. A positive
	// value additionally holds each flush open for that long to widen
	// batches. Negative disables group commit (one transaction per task,
	// the pre-group-commit behaviour). Group commit preserves the
	// commit-before-ack ordering of Algorithm 1 exactly: a task's outputs
	// remain unconsumable until its flush transaction commits, and every
	// batched entry carries its own barrier/epoch fences. Timing-only;
	// never output-visible.
	LineageFlushInterval time.Duration

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
		SpoolProfile:         storage.ProfileS3,
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
// task dependencies and durable spooling to HDFS.
func TrinoConfig() Config {
	c := DefaultConfig()
	c.Dynamic = false
	c.FT = FTSpool
	c.SpoolProfile = storage.ProfileHDFS
	return c
}

// clusterOptions are the cluster-level settings a query inherits: what the
// Configure options write and resolve reads. The zero value is the built-in
// behaviour.
type clusterOptions struct {
	cursorBuffer       int64         // WithCursorBufferBytes; 0 = DefaultCursorBufferBytes
	flushInterval      time.Duration // WithLineageFlushInterval
	shuffleCompressOff bool          // WithShuffleCompression(false)
	spillCompressOff   bool          // WithSpillCompression(false)
	tracing            bool          // WithTracing
}

// Policy is one query's effective settings: the caller's Config with every
// floor and inherited value filled in — so CursorBufferBytes is never 0
// (negative = no bound) and LineageFlushInterval is the query's own or the
// cluster's — plus the cluster-level options as they stood at submit time.
// resolve builds it once; the Runner keeps it and WorkerQuerySpec ships it
// whole, so the head and every worker process run one query under one
// policy and nothing downstream re-derives a default.
type Policy struct {
	Config

	// ShuffleCompress / SpillCompress select QBA2 over raw encoding-0 for
	// shuffle, backup and spool bytes / for spill runs. Frozen per query:
	// decode is self-describing, but byte metrics should mean one thing.
	ShuffleCompress, SpillCompress bool
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
	unset(&cfg.Parallelism, cfg.CPUPerWorker)
	unset(&cfg.CheckpointEveryTasks, d.CheckpointEveryTasks)
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = d.PollInterval
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = d.HeartbeatInterval
	}
	if cfg.CursorBufferBytes == 0 {
		cfg.CursorBufferBytes = o.cursorBuffer
	}
	if cfg.CursorBufferBytes == 0 {
		cfg.CursorBufferBytes = DefaultCursorBufferBytes
	}
	if cfg.LineageFlushInterval == 0 {
		cfg.LineageFlushInterval = o.flushInterval
	}
	return Policy{
		Config:          cfg,
		ShuffleCompress: !o.shuffleCompressOff,
		SpillCompress:   !o.spillCompressOff,
		Tracing:         o.tracing,
	}, nil
}
