// Package quokka is the public API of this repository: a distributed
// pipelined query engine with intra-query fault tolerance via write-ahead
// lineage, reproducing "Efficient Fault Tolerance for Pipelined Query
// Engines via Write-ahead Lineage" (ICDE 2024).
//
// The package exposes:
//
//   - Cluster: a simulated worker fleet with killable workers, per-worker
//     NVMe disks and Flight mailboxes, a durable object store, and a
//     transactional global control store (GCS).
//   - Session / DataFrame: a Spark/Polars-style lazy DataFrame API that
//     builds a logical plan, optimized at Collect (predicate pushdown,
//     projection pruning, operator fusion, broadcast-join selection) and
//     lowered to the engine's pipelined physical plans; Explain shows
//     the optimized plan.
//   - Query / Cursor: Submit returns a per-query handle immediately; any
//     number of queries run concurrently on one cluster (bounded by the
//     admission controller, FIFO beyond the bound), stream results
//     through pull-based cursors with backpressure, and cancel cleanly
//     without disturbing each other. Collect is Submit + Result.
//   - RunConfig: execution / fault-tolerance / recovery knobs, with
//     presets for the paper's three systems (Quokka, SparkSQL-like,
//     Trino-like).
//   - TPC-H: the full deterministic data generator and all 22 query
//     plans used by the paper's evaluation.
//
// Quickstart:
//
//	cl, _ := quokka.NewCluster(quokka.ClusterConfig{Workers: 4})
//	quokka.LoadTPCH(cl, 0.01, 0)
//	res, _ := quokka.RunTPCH(context.Background(), cl, 6, quokka.DefaultConfig())
//	fmt.Println(res)
package quokka

import (
	"fmt"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/storage"
	"quokka/internal/wire"
)

// RunConfig controls one query execution: pipelined vs stagewise
// scheduling, dynamic vs static task dependencies, the fault-tolerance
// strategy and the recovery placement policy.
type RunConfig = engine.Config

// Re-exported configuration presets matching the paper's three systems.
var (
	// DefaultConfig is the paper's Quokka: dynamic pipelined execution,
	// write-ahead lineage, pipeline-parallel recovery.
	DefaultConfig = engine.DefaultConfig
	// SparkLikeConfig is the SparkSQL stand-in: stagewise execution,
	// lineage + upstream backup, data-parallel recovery.
	SparkLikeConfig = engine.SparkConfig
	// TrinoLikeConfig is the Trino stand-in: static pipelined execution
	// with durable spooling to the cluster's object store.
	TrinoLikeConfig = engine.TrinoConfig
)

// FTMode selects the fault-tolerance strategy.
type FTMode = engine.FTMode

// Fault-tolerance modes (RunConfig.FT).
const (
	FTNone              = engine.FTNone
	FTWriteAheadLineage = engine.FTWriteAheadLineage
	FTSpool             = engine.FTSpool
	FTCheckpoint        = engine.FTCheckpoint
)

// Execution modes (RunConfig.Execution).
const (
	Pipelined = engine.Pipelined
	Stagewise = engine.Stagewise
)

// Recovery modes (RunConfig.Recovery).
const (
	RecoveryPipelineParallel = engine.RecoveryPipelineParallel
	RecoveryDataParallel     = engine.RecoveryDataParallel
)

// Option is a cluster-level tuning knob, passed to NewCluster, NewSession
// or Cluster.Configure. Options tune the execution state shared by every
// query on one cluster — admission, process mode, and the defaults a
// query's RunConfig falls back to — whereas RunConfig tunes one execution.
type Option = engine.Option

// WithAdmissionLimit bounds how many queries the cluster executes
// concurrently (default 4). Submissions beyond the bound queue FIFO and
// are admitted as slots free up; n <= 0 restores the default. Raising the
// limit immediately admits queued queries.
func WithAdmissionLimit(n int) Option { return engine.WithAdmissionLimit(n) }

// WithListenAddr switches a cluster into process mode: the head serves
// its control plane — GCS transactions, the object store and the result
// sink — to quokka-worker processes over TCP on the given address (":0"
// picks an ephemeral port; see Cluster.WireAddr). Queries then execute on
// attached worker processes instead of local goroutines; each hosts its
// own flight mailbox on a listener of its own and pushes to its peers
// directly. Empty (the default) keeps the cluster fully in-memory.
//
// Experimental: the wire protocol and this option's shape may change.
func WithListenAddr(addr string) Option { return engine.WithListenAddr(addr) }

// WithTracing enables the per-query flight recorder (off by default).
// Traced queries record a structured span for every unit of work — task
// executions, partition pushes, lineage flushes, admission waits, recovery
// rewinds and replays — surfaced through Query.Trace (Chrome trace-event
// export), Query.Stats and Result.ExplainAnalyze. Tracing only observes:
// results are byte-identical with it on or off, and a disabled recorder
// costs nothing on the task hot path. Only queries submitted after the
// call observe the change.
func WithTracing(on bool) Option { return engine.WithTracing(on) }

// ClusterConfig configures cluster construction.
type ClusterConfig struct {
	// Workers is the number of simulated worker machines.
	Workers int
	// TimeScale turns the cost model on: positive, every simulated I/O
	// (object store, network, disk, GCS round trip) sleeps its calibrated
	// service time times TimeScale — modelled time, what the paper-figure
	// reproductions run at 1.0. Zero, the zero value, and negative mean real
	// time: nothing sleeps and a run costs what the machine makes it cost.
	TimeScale float64
	// HDFSObjectStore selects the HDFS cost profile for the shared object
	// store, which tables, spooled outputs and checkpoints share, instead of S3.
	HDFSObjectStore bool
}

// Cluster is a simulated cluster: workers (killable at any time), the
// durable object store holding input tables, the head-node GCS, and the
// metrics collector. In process mode (WithListenAddr) it additionally
// runs the head's wire server, and the workers are real OS processes.
type Cluster struct {
	inner *cluster.Cluster
	wire  *wire.Server // non-nil in process mode
}

// NewCluster builds a cluster of cfg.Workers live workers and applies any
// cluster-level tuning options (see Option). With WithListenAddr among
// the options, the cluster comes up in process mode: the head's wire
// server is started and queries wait for quokka-worker processes (spawn
// with SpawnWorker or attach externally; see AwaitWorkers).
func NewCluster(cfg ClusterConfig, opts ...Option) (*Cluster, error) {
	cost := storage.DefaultCostModel()
	cost.TimeScale = max(cfg.TimeScale, 0)
	profile := storage.ProfileS3
	if cfg.HDFSObjectStore {
		profile = storage.ProfileHDFS
	}
	inner, err := cluster.New(cluster.Options{
		Workers: cfg.Workers,
		Cost:    cost,
		Profile: profile,
	})
	if err != nil {
		return nil, err
	}
	engine.Configure(inner, opts...)
	c := &Cluster{inner: inner}
	if addr := engine.ListenAddr(inner); addr != "" {
		srv, err := wire.NewServer(inner, addr)
		if err != nil {
			return nil, err
		}
		engine.SetRemoteExec(inner, srv)
		c.wire = srv
	}
	return c, nil
}

// WireAddr returns the head's wire listen address in process mode (with
// the resolved port when WithListenAddr(":0") was used), "" otherwise.
func (c *Cluster) WireAddr() string {
	if c.wire == nil {
		return ""
	}
	return c.wire.Addr()
}

// SpawnWorker launches a quokka-worker process from the given binary for
// worker id, attached to this cluster's head. slots caps its task-manager
// threads per query and memBudget its accounted operator memory (0 keeps
// each query's own setting); spillDir backs its local disk. KillWorker on
// a spawned worker delivers a real SIGKILL to the process.
//
// Experimental: process-mode surface, may change.
func (c *Cluster) SpawnWorker(bin string, id, slots int, memBudget int64, spillDir string) error {
	if c.wire == nil {
		return fmt.Errorf("quokka: SpawnWorker needs process mode (WithListenAddr)")
	}
	return c.wire.Spawn(bin, id, slots, memBudget, spillDir)
}

// AwaitWorkers blocks until n worker processes are attached to the head,
// or the timeout expires.
//
// Experimental: process-mode surface, may change.
func (c *Cluster) AwaitWorkers(n int, timeout time.Duration) error {
	if c.wire == nil {
		return fmt.Errorf("quokka: AwaitWorkers needs process mode (WithListenAddr)")
	}
	return c.wire.AwaitWorkers(n, timeout)
}

// Close shuts the cluster down. In process mode it stops the wire server
// and kills every spawned worker process; for an in-memory cluster it is
// a no-op. Safe to call more than once.
func (c *Cluster) Close() {
	if c.wire != nil {
		c.wire.Close()
	}
}

// Configure applies cluster-level tuning options to a live cluster. It may
// be called at any time; each option documents whether in-flight queries
// observe the change.
func (c *Cluster) Configure(opts ...Option) { engine.Configure(c.inner, opts...) }

// Workers returns the total number of workers (live or dead).
func (c *Cluster) Workers() int { return len(c.inner.Workers) }

// AliveWorkers returns the number of live workers.
func (c *Cluster) AliveWorkers() int { return c.inner.AliveCount() }

// KillWorker simulates worker i failing: its in-flight tasks, shuffle
// mailbox and local disk are lost, exactly like a spot pre-emption.
func (c *Cluster) KillWorker(i int) error {
	if i < 0 || i >= len(c.inner.Workers) {
		return fmt.Errorf("quokka: no worker %d", i)
	}
	c.inner.Worker(cluster.WorkerID(i)).Kill()
	return nil
}

// Metrics returns a snapshot of the cluster's counters (bytes shuffled,
// backed up, spooled, GCS transactions, tasks executed/replayed, ...).
func (c *Cluster) Metrics() map[string]int64 { return c.inner.Metrics.Snapshot() }

// ColumnType enumerates the supported table column types.
type ColumnType = batch.Type

// Supported column types for CreateTable.
const (
	Int64   = batch.Int64
	Float64 = batch.Float64
	String  = batch.String
	Bool    = batch.Bool
	Date    = batch.Date
)

// ColumnDef defines one column of a user table.
type ColumnDef struct {
	Name string
	Type ColumnType
}

// CreateTable ingests rows into the cluster's object store as a named
// table, split into splitRows-row splits (default 1024). Row values must
// match the declared column types (int64, float64, string, bool; Date
// columns take int64 days since the Unix epoch).
func (c *Cluster) CreateTable(name string, cols []ColumnDef, rows [][]any, splitRows int) error {
	if splitRows <= 0 {
		splitRows = 1024
	}
	fields := make([]batch.Field, len(cols))
	for i, cd := range cols {
		fields[i] = batch.Field{Name: cd.Name, Type: cd.Type}
	}
	schema := batch.NewSchema(fields...)
	bl := batch.NewBuilder(schema, len(rows))
	for ri, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("quokka: row %d has %d values, want %d", ri, len(row), len(cols))
		}
		for ci, v := range row {
			col := bl.Col(ci)
			var ok bool
			switch cols[ci].Type {
			case batch.Int64, batch.Date:
				var x int64
				x, ok = toInt64(v)
				if ok {
					col.Ints = append(col.Ints, x)
				}
			case batch.Float64:
				var x float64
				x, ok = toFloat64(v)
				if ok {
					col.Floats = append(col.Floats, x)
				}
			case batch.String:
				var x string
				x, ok = v.(string)
				if ok {
					col.Strings = append(col.Strings, x)
				}
			case batch.Bool:
				var x bool
				x, ok = v.(bool)
				if ok {
					col.Bools = append(col.Bools, x)
				}
			}
			if !ok {
				return fmt.Errorf("quokka: row %d column %q: value %v (%T) does not match type %s",
					ri, cols[ci].Name, v, v, cols[ci].Type)
			}
		}
	}
	b := bl.Build()
	splits := b.SplitRows(splitRows)
	if splits == nil {
		splits = []*batch.Batch{b}
	}
	engine.WriteTable(c.inner.HeadObjs, name, splits)
	return nil
}

func toInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	}
	return 0, false
}

func toFloat64(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}
