package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/metrics"
	"quokka/internal/tpch"
	"quokka/internal/trace"
)

// A leg is one pass over the workload's query list under one
// fault-tolerance setting.
type leg string

const (
	legNone leg = "none" // engine.FTNone: no lineage log, no backup
	legWAL  leg = "wal"  // write-ahead lineage, failure-free: the engine default
	legKill leg = "kill" // write-ahead lineage, one worker killed mid-query
)

const (
	// setup_s is the median of at least setupMin set-ups; short ones are
	// repeated until setupTime has been spent on them, up to setupMax.
	setupMin      = 3
	setupMax      = 9
	setupTime     = time.Second
	minRounds     = 3 // rounds run however short -seconds is
	killRetries   = 3 // re-timings of a kill that landed after the query finished
	deadlineGrace = 5 * time.Second
)

// options are the command-line settings of one run.
type options struct {
	seed      int64
	seconds   float64
	trace     int // 0 end-to-end only, 1 per-layer only, -1 both
	workerBin string
	minRounds int // 0 picks minRounds; the smoke test runs a single round
}

// legSamples collects what the passes of one leg measured.
type legSamples struct {
	pass    []float64         // wall-clock seconds of each pass without a failed query
	cpu     []float64         // CPU seconds of the same passes
	lat     map[int][]float64 // per query: latency seconds of each successful run
	counts  map[string]int64  // cluster counter deltas summed over the passes
	hists   map[string]metrics.HistogramSnapshot
	passes  int // passes behind counts and hists, failed ones included
	queries int // successful query runs
	kills   int // kill leg: runs in which recovery happened
	retimed int // kill leg: runs repeated because the kill landed too late

	// Filled by traced passes only.
	spans       int                          // spans recorded
	busy        map[trace.Kind]time.Duration // summed span durations per kind
	count       map[trace.Kind]int
	dropped     int64
	scanWall    time.Duration // summed task wall-clock of reader stages
	execWall    time.Duration // ... of every other stage
	scanTasks   int           // reader-stage task spans and their summed duration
	scanTaskDur time.Duration
	stageIn     map[string]int64 // rows into each kind of stage ("scan", "join", ...)
}

func newLegSamples() *legSamples {
	return &legSamples{
		lat:     map[int][]float64{},
		counts:  map[string]int64{},
		hists:   map[string]metrics.HistogramSnapshot{},
		stageIn: map[string]int64{},
		busy:    map[trace.Kind]time.Duration{},
		count:   map[trace.Kind]int{},
	}
}

// run is the state of one workload run.
type run struct {
	w    workloadSpec
	opt  options
	rng  *rand.Rand
	env  *env
	refs map[int]*batch.Batch

	setup     []float64
	untraced  map[leg]*legSamples
	traced    map[leg]*legSamples
	warm      *legSamples // the discarded warm-up pass: first estimate of the kill delay
	attempted int
	failed    int
	layers    map[string]float64 // timed layer suite results
	spans     []benchSpan        // the benchmark's own spans: traced queries, layer suite calls
}

// runWorkload sets the workload up, verifies and measures it, and returns
// its metrics. It is one process invocation's worth of work.
func runWorkload(w workloadSpec, opt options) (*result, error) {
	if opt.minRounds == 0 {
		opt.minRounds = minRounds
	}
	r := &run{w: w, opt: opt, untraced: map[leg]*legSamples{}, traced: map[leg]*legSamples{}}
	r.seed(opt.seed)
	for _, l := range r.legs() {
		r.untraced[l], r.traced[l] = newLegSamples(), newLegSamples()
	}

	// Set-up, several times: the last one is kept, all are timed.
	for spent := time.Duration(0); len(r.setup) < setupMin || (spent < setupTime && len(r.setup) < setupMax); {
		if r.env != nil {
			r.env.close()
		}
		start := time.Now()
		e, err := newEnv(w, opt.workerBin)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		r.setup = append(r.setup, took.Seconds())
		r.env = e
	}
	defer r.env.close()

	if err := r.computeReferences(); err != nil {
		return nil, err
	}

	// Warm-up: one discarded wal pass on the measured cluster.
	r.warm = newLegSamples()
	r.pass(legWAL, r.w.Queries, r.warm, false)
	r.attempted, r.failed = 0, 0 // the warm-up is not a measured operation

	// Measured rounds. With tracing asked for, every second round runs
	// traced: the end-to-end numbers only ever come from untraced rounds.
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		tracing := opt.trace != 0 && round%2 == 1
		engine.Configure(r.env.cl, engine.WithTracing(tracing))
		into := r.untraced
		if tracing {
			into = r.traced
		}
		order := r.permutation()
		for _, l := range r.legs() {
			r.pass(l, order, into[l], tracing)
		}
		elapsed, last := time.Since(start).Seconds(), time.Since(roundStart).Seconds()
		if round+1 >= opt.minRounds && elapsed+last/2 >= opt.seconds {
			break
		}
	}

	if w.Layers && opt.trace != 0 {
		var spans []benchSpan
		r.layers, spans = runLayerSuite(opt.seed)
		r.spans = append(r.spans, spans...)
	}
	return r.result(), nil
}

// seed starts the run's schedule: the per-round query orders and the
// killed workers are drawn from it and from nothing else.
func (r *run) seed(seed int64) { r.rng = rand.New(rand.NewSource(seed)) }

// deadline is how long one query may take before it is cancelled and
// counted as failed.
func (r *run) deadline() time.Duration {
	if r.w.Proc {
		return 120 * time.Second
	}
	return 30 * time.Second
}

func (r *run) legs() []leg {
	if r.w.Kill {
		return []leg{legNone, legWAL, legKill}
	}
	return []leg{legNone, legWAL}
}

// permutation returns the query list in this round's seeded order.
func (r *run) permutation() []int {
	order := append([]int(nil), r.w.Queries...)
	r.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (r *run) config(l leg) engine.Config {
	cfg := engine.DefaultConfig()
	if l == legNone {
		cfg.FT = engine.FTNone
	}
	return cfg
}

// computeReferences runs every query once on a 1-worker, Parallelism-1,
// FTNone in-memory cluster over the loaded tables; every measured result is
// compared to these.
func (r *run) computeReferences() error {
	cl, err := newCluster(1, r.env.store)
	if err != nil {
		return err
	}
	cfg := r.config(legNone)
	cfg.Parallelism = 1
	r.refs = map[int]*batch.Batch{}
	for _, q := range r.w.Queries {
		qr := runQuery(cl, q, cfg, r.deadline(), nil)
		if qr.err != nil {
			return fmt.Errorf("reference result of Q%d: %w", q, qr.err)
		}
		r.refs[q] = qr.out
	}
	return nil
}

// pass runs the queries of order one after the other under leg l — the
// next is submitted when the previous result has been verified — and adds
// what it measured to s.
func (r *run) pass(l leg, order []int, s *legSamples, tracing bool) {
	cl := r.env.cl
	before, beforeStore, beforeHist := cl.Metrics.Snapshot(), r.env.storeMet.Snapshot(), cl.Metrics.Histograms()
	cpu0, start := r.env.cpuSeconds(), time.Now()
	clean := true
	for _, q := range order {
		var qr queryRun
		if l == legKill {
			qr = r.killedQuery(q, s, tracing)
		} else {
			qr = runQuery(cl, q, r.config(l), r.deadline(), nil)
		}
		r.attempted++
		if qr.err == nil {
			qr.err = sameResult(r.refs[q], qr.out)
		}
		if qr.err != nil {
			r.failed++
			clean = false
			fmt.Fprintf(os.Stderr, "FAILED %s leg %s Q%d: %v\n", r.w.Name, l, q, qr.err)
			if qr.abandoned {
				r.replaceCluster()
				cl = r.env.cl
				before, beforeStore, beforeHist = cl.Metrics.Snapshot(), r.env.storeMet.Snapshot(), cl.Metrics.Histograms()
			}
			continue
		}
		s.lat[q] = append(s.lat[q], qr.latency.Seconds())
		if tracing {
			r.spans = append(r.spans, benchSpan{fmt.Sprintf("%s/Q%d", l, q), qr.start, qr.latency})
		}
		s.queries++
		s.addTrace(qr)
	}
	if clean {
		s.pass = append(s.pass, time.Since(start).Seconds())
		s.cpu = append(s.cpu, r.env.cpuSeconds()-cpu0)
	}
	s.passes++
	addDelta(s.counts, before, cl.Metrics.Snapshot())
	addDelta(s.counts, beforeStore, r.env.storeMet.Snapshot())
	addHistDelta(s.hists, beforeHist, cl.Metrics.Histograms())
}

// replaceCluster swaps in a fresh in-memory cluster after a query had to be
// abandoned mid-flight: whatever it still holds must not slow or block the
// queries after it. (A process-mode cluster is kept: its workers are
// attached to it.)
func (r *run) replaceCluster() {
	if r.w.Proc {
		return
	}
	if cl, err := newCluster(r.w.Workers, r.env.store); err == nil {
		r.env.cl = cl
	}
}

// killedQuery runs q under write-ahead lineage on a fresh cluster and kills
// one seed-chosen worker (never worker 0, which hosts the single-channel
// final stages) at half the query's median failure-free latency. A run in
// which the kill landed after the query had finished measures nothing about
// recovery: it is timed again, and counted in s.retimed.
func (r *run) killedQuery(q int, s *legSamples, tracing bool) queryRun {
	delay := time.Duration(0.5 * r.walLatency(q) * float64(time.Second))
	victim := r.victim()
	var qr queryRun
	for try := 0; try <= killRetries; try++ {
		cl, err := newCluster(r.w.Workers, r.env.store)
		if err != nil {
			return queryRun{err: err}
		}
		engine.Configure(cl, engine.WithTracing(tracing))
		qr = runQuery(cl, q, r.config(legKill), r.deadline(), func() *time.Timer {
			return time.AfterFunc(delay, cl.Worker(victim).Kill)
		})
		if qr.err != nil {
			return qr
		}
		if qr.rep.Recoveries > 0 {
			s.kills++
			addDelta(s.counts, nil, cl.Metrics.Snapshot())
			return qr
		}
		s.retimed++
	}
	qr.err = fmt.Errorf("kill after %v never landed before the query finished (%d tries)", delay, killRetries+1)
	return qr
}

// victim picks the worker the next kill hits: any but worker 0.
func (r *run) victim() cluster.WorkerID {
	return cluster.WorkerID(1 + r.rng.Intn(r.w.Workers-1))
}

// walLatency is the median failure-free latency of q measured so far.
func (r *run) walLatency(q int) float64 {
	ls := append(append([]float64(nil), r.untraced[legWAL].lat[q]...), r.traced[legWAL].lat[q]...)
	if len(ls) == 0 {
		ls = r.warm.lat[q]
	}
	return median(ls)
}

// queryRun is the outcome of one query execution.
type queryRun struct {
	out       *batch.Batch
	rep       *engine.Report
	start     time.Time
	latency   time.Duration
	err       error
	abandoned bool // the query did not stop within the grace period after its deadline

	plan    *engine.Plan
	spans   []trace.Span
	dropped int64
	stages  []engine.StageStats
}

var errDeadline = errors.New("deadline exceeded")

// runQuery plans and executes TPC-H query q on cl and waits for its result.
// Latency runs from before planning to the assembled result. arm, when
// given, is called right before the query starts and returns a timer that
// is stopped when the query ends (the kill leg's fault injection). On
// expiry of the deadline the query is cancelled, all goroutine stacks go to
// stderr, and the run is reported as failed instead of hanging the
// benchmark.
func runQuery(cl *cluster.Cluster, q int, cfg engine.Config, deadline time.Duration, arm func() *time.Timer) queryRun {
	start := time.Now()
	plan, err := tpch.Query(q)
	if err != nil {
		return queryRun{err: err}
	}
	runner, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		return queryRun{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if arm != nil {
		defer arm().Stop()
	}
	query := runner.Start(ctx)
	if err := query.WaitContext(ctx); err != nil && ctx.Err() != nil {
		query.Cancel()
		dumpStacks()
		qr := queryRun{err: fmt.Errorf("Q%d after %v: %w", q, deadline, errDeadline)}
		select {
		case <-query.Done():
		case <-time.After(deadlineGrace):
			qr.abandoned = true
		}
		return qr
	}
	out, rep, err := query.Result()
	qr := queryRun{out: out, rep: rep, start: start, latency: time.Since(start), err: err, plan: plan}
	if rec := query.Trace(); rec != nil {
		qr.spans, qr.dropped, qr.stages = rec.Snapshot(), rec.Dropped(), query.Stats()
	}
	return qr
}

func dumpStacks() {
	buf := make([]byte, 1<<22)
	os.Stderr.Write(buf[:runtime.Stack(buf, true)])
}

// addTrace folds a traced query's spans and per-stage actuals into s.
func (s *legSamples) addTrace(qr queryRun) {
	s.spans += len(qr.spans)
	s.dropped += qr.dropped
	for _, sp := range qr.spans {
		s.busy[sp.Kind] += sp.Dur
		s.count[sp.Kind]++
		if sp.Kind == trace.KindTask && qr.plan.Stages[sp.Stage].Reader != nil {
			s.scanTasks++
			s.scanTaskDur += sp.Dur
		}
	}
	for _, st := range qr.stages {
		kind := stageKind(qr.plan.Stages[st.Stage])
		if kind == "scan" {
			s.scanWall += st.Wall
		} else {
			s.execWall += st.Wall
		}
		s.stageIn[kind] += st.InRows
	}
}

// stageKind classifies a plan stage by the lowerer's stage names: "scan",
// "map", "filter", "select", "join", "agg" (partial or final) or "sort".
func stageKind(st *engine.Stage) string {
	switch {
	case st.Reader != nil:
		return "scan"
	case st.Name == "agg-partial":
		return "agg"
	}
	return st.Name
}

// addDelta adds after-before to into, counter by counter. Gauges (high-water
// marks) cannot be differenced and are skipped.
func addDelta(into, before, after map[string]int64) {
	for k, v := range after {
		if !metrics.IsGauge(k) {
			into[k] += v - before[k]
		}
	}
}

// addHistDelta adds the observations made between two histogram snapshots.
func addHistDelta(into, before, after map[string]metrics.HistogramSnapshot) {
	for k, a := range after {
		b, d := before[k], into[k]
		d.Count += a.Count - b.Count
		d.Sum += a.Sum - b.Sum
		if a.Max > d.Max {
			d.Max = a.Max
		}
		for i := range d.Buckets {
			d.Buckets[i] += a.Buckets[i] - b.Buckets[i]
		}
		into[k] = d
	}
}
