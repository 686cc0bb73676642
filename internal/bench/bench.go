// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§V) — normal-execution comparisons
// against the SparkSQL- and Trino-like baselines (Fig. 6, 11a), the
// pipelined-vs-stagewise and dynamic-vs-static ablations (Fig. 7, 8),
// fault-tolerance overhead (Fig. 9 plus the checkpointing discussion of
// §V-C), and fault-recovery behaviour (Fig. 10a, 10b, 11b).
//
// Every time it prints is modelled: the cost model (storage.CostModel)
// sleeps for I/O and compute, and each table says so under its title. The
// harness reports the paper's metrics (speedups and overhead ratios) whose
// *shape* is the reproduction target; real-time measurement is benchmark/.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/storage"
	"quokka/internal/tpch"
)

// Params configures the harness.
type Params struct {
	SF        float64 // TPC-H scale factor
	SplitRows int     // table split granularity
	TimeScale float64 // cost-model compression (0 = calibrated default)
	Repeats   int     // timing repetitions (mean is reported)
	Out       io.Writer
}

// DefaultParams returns the configuration used by cmd/quokka-bench: a
// laptop-scale stand-in for the paper's SF100/EC2 setup.
func DefaultParams(out io.Writer) Params {
	return Params{SF: 0.02, SplitRows: 512, TimeScale: 1.0, Repeats: 1, Out: out}
}

// Harness generates the dataset once and runs experiments against it.
type Harness struct {
	P    Params
	cost storage.CostModel
	data *storage.ObjectStore // shared, read-only table store
}

// New builds a harness, generating the TPC-H dataset once.
func New(p Params) *Harness {
	if p.Repeats <= 0 {
		p.Repeats = 1
	}
	if p.SplitRows <= 0 {
		p.SplitRows = 512
	}
	cost := storage.DefaultCostModel()
	if p.TimeScale > 0 {
		cost.TimeScale = p.TimeScale
	}
	h := &Harness{P: p, cost: cost}
	h.data = storage.NewObjectStore(cost, storage.ProfileS3, nil)
	tpch.Load(h.data, tpch.Generate(p.SF), p.SplitRows)
	return h
}

func (h *Harness) printf(format string, args ...any) {
	if h.P.Out != nil {
		fmt.Fprintf(h.P.Out, format, args...)
	}
}

// title prints a timing table's title line followed by the reminder that
// its seconds are the cost model's, not the machine's.
func (h *Harness) title(format string, args ...any) {
	h.printf(format+"\n", args...)
	h.printf("time: modelled (TimeScale=%g)\n", h.cost.TimeScale)
}

// newCluster builds a fresh cluster sharing the loaded table store.
func (h *Harness) newCluster(workers int) *cluster.Cluster {
	cl, err := cluster.New(cluster.Options{
		Workers:  workers,
		Cost:     h.cost,
		ObjStore: h.data,
	})
	if err != nil {
		panic(err) // workers > 0 always; programming error otherwise
	}
	return cl
}

// killSpec schedules one worker kill at a wall-clock offset from query
// start.
type killSpec struct {
	worker int
	after  time.Duration
}

// runOnce executes one query once, optionally killing a worker.
func (h *Harness) runOnce(workers, q int, cfg engine.Config, kill *killSpec) (time.Duration, *engine.Report, error) {
	cl := h.newCluster(workers)
	plan, err := tpch.QueryOn(q, workers)
	if err != nil {
		return 0, nil, err
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		return 0, nil, err
	}
	if kill != nil {
		timer := time.AfterFunc(kill.after, func() {
			cl.Worker(cluster.WorkerID(kill.worker)).Kill()
		})
		defer timer.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	_, rep, err := r.Run(ctx)
	if err != nil {
		return time.Since(start), nil, err
	}
	return rep.Duration, rep, nil
}

// run executes a query Repeats times and returns the mean duration.
func (h *Harness) run(workers, q int, cfg engine.Config) (time.Duration, *engine.Report, error) {
	var total time.Duration
	var rep *engine.Report
	for i := 0; i < h.P.Repeats; i++ {
		d, r, err := h.runOnce(workers, q, cfg, nil)
		if err != nil {
			return 0, nil, err
		}
		total += d
		rep = r
	}
	return total / time.Duration(h.P.Repeats), rep, nil
}

// runWithKill measures a run during which a worker dies after the given
// fraction of the failure-free runtime base.
func (h *Harness) runWithKill(workers, q int, cfg engine.Config, base time.Duration, frac float64) (time.Duration, *engine.Report, error) {
	after := time.Duration(float64(base) * frac)
	// Kill a worker that is not worker 0 (any would do; 0 hosts the
	// single-channel final stages, killing it exercises the deepest
	// rewind, so pick 1 to match the paper's "random worker").
	return h.runOnce(workers, q, cfg, &killSpec{worker: 1, after: after})
}

// runRestartBaseline measures the paper's restart baseline: no fault
// tolerance, query killed mid-run, restarted from scratch on the
// remaining workers.
func (h *Harness) runRestartBaseline(workers, q int, base time.Duration, frac float64) (time.Duration, error) {
	cfg := engine.DefaultConfig()
	cfg.FT = engine.FTNone
	start := time.Now()
	d, _, err := h.runOnce(workers, q, cfg, &killSpec{worker: 1, after: time.Duration(float64(base) * frac)})
	if err == nil {
		// The failure landed after the query finished; total is just d.
		return d, nil
	}
	if !errors.Is(err, engine.ErrQueryFailed) {
		return 0, err
	}
	// Restart on the surviving workers.
	cl := h.newCluster(workers)
	cl.Worker(cluster.WorkerID(1)).Kill()
	plan, err := tpch.QueryOn(q, workers)
	if err != nil {
		return 0, err
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if _, _, err := r.Run(ctx); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
