package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// WorkerConfig configures one quokka-worker process.
type WorkerConfig struct {
	// Head is the head node's wire address (host:port).
	Head string
	// ID is this worker's slot in the cluster (0-based; must match a
	// worker the head's cluster was built with).
	ID int
	// Slots caps the task-manager threads this process runs per query
	// (0 = the query spec's own ThreadsPerWorker).
	Slots int
	// MemoryBudget, when > 0, overrides the per-query accounted operator
	// memory cap (bytes) — the knob that makes this process spill.
	MemoryBudget int64
	// SpillDir is the directory backing this worker's "NVMe": spill runs
	// and upstream backups live here and die with the directory.
	SpillDir string
}

// RunWorker attaches to the head and serves queries until ctx is
// cancelled or the head goes away. It is the whole life of a
// quokka-worker process: dial, handshake, then run task-manager threads
// for every query the head starts.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	return runWorker(ctx, wc, &metrics.Collector{})
}

// runWorker is RunWorker counting into met, the process's own collector.
func runWorker(ctx context.Context, wc WorkerConfig, met *metrics.Collector) error {
	if wc.SpillDir == "" {
		d, err := os.MkdirTemp("", "quokka-worker-spill-")
		if err != nil {
			return fmt.Errorf("wire: worker spill dir: %w", err)
		}
		defer os.RemoveAll(d)
		wc.SpillDir = d
	}
	ctrl, err := net.DialTimeout("tcp", wc.Head, 10*time.Second)
	if err != nil {
		return fmt.Errorf("wire: dial head %s: %w", wc.Head, err)
	}
	defer ctrl.Close()

	var hello wbuf
	hello.u32(uint32(wc.ID))
	if err := writeFrame(ctrl, mtHello, hello.b); err != nil {
		return fmt.Errorf("wire: hello: %w", err)
	}
	typ, payload, err := readFrame(ctrl)
	if err != nil {
		return fmt.Errorf("wire: hello response: %w", err)
	}
	if typ != mtHelloResp {
		return respErr(typ, mtHelloResp)
	}
	hr := rbuf{b: payload}
	numWorkers := int(hr.u32("cluster size"))
	self := int(hr.u32("self id"))
	if err := hr.err(); err != nil {
		return err
	}
	if self != wc.ID || numWorkers <= 0 || numWorkers > 1<<16 {
		return fmt.Errorf("wire: head assigned id %d in a %d-worker cluster (asked for %d)", self, numWorkers, wc.ID)
	}

	p := newPool(wc.Head)
	defer p.close()
	cl, err := workerCluster(p, numWorkers, cluster.WorkerID(self), wc.SpillDir, met)
	if err != nil {
		return err
	}

	w := &workerRT{
		cfg:     wc,
		cl:      cl,
		pool:    p,
		self:    cluster.WorkerID(self),
		ctrl:    ctrl,
		queries: make(map[string]context.CancelFunc),
	}
	return w.loop(ctx)
}

// workerCluster assembles the worker process's view of the cluster: every
// mailbox is a wire client to its head-hosted flight server, the GCS and
// object store are wire clients, and only THIS worker's disk is real (a
// directory); the other workers' disks are inert placeholders no
// worker-side code path touches.
func workerCluster(p *pool, numWorkers int, self cluster.WorkerID, spillDir string, met *metrics.Collector) (*cluster.Cluster, error) {
	// TimeScale 0: a worker process pays real I/O and real network
	// latency; layering modelled sleeps on top would double-charge.
	cost := storage.CostModel{}
	cl := &cluster.Cluster{
		GCS:      &gcsClient{p: p},
		ObjStore: &objClient{p: p},
		Cost:     cost,
		Metrics:  met,
	}
	for i := 0; i < numWorkers; i++ {
		var disk storage.Disk
		if cluster.WorkerID(i) == self {
			d, err := storage.NewDirDisk(spillDir, met)
			if err != nil {
				return nil, fmt.Errorf("wire: worker disk: %w", err)
			}
			disk = d
		} else {
			disk = storage.NewLocalDisk(cost, met)
		}
		cl.Workers = append(cl.Workers, cluster.NewWorker(
			cluster.WorkerID(i),
			&flightClient{p: p, worker: uint32(i)},
			disk,
		))
	}
	return cl, nil
}

// workerRT is the control loop state of one worker process.
type workerRT struct {
	cfg  WorkerConfig
	cl   *cluster.Cluster
	pool *pool
	self cluster.WorkerID

	ctrl net.Conn
	wmu  sync.Mutex // serializes control-frame writes (acks vs async fail/stopped)

	mu      sync.Mutex
	queries map[string]context.CancelFunc
}

func (w *workerRT) send(typ byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.ctrl, typ, payload)
}

func (w *workerRT) loop(ctx context.Context) error {
	// Unblock the control read when ctx ends (process shutdown).
	stop := context.AfterFunc(ctx, func() { w.ctrl.Close() })
	defer stop()
	defer func() {
		w.mu.Lock()
		for _, cancel := range w.queries {
			cancel()
		}
		w.mu.Unlock()
	}()
	for {
		typ, payload, err := readFrame(w.ctrl)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("wire: control conn: %w", err)
		}
		r := rbuf{b: payload}
		switch typ {
		case mtStartQuery:
			qid := r.str("start qid")
			specBytes := r.bytesOwned("start spec")
			if err := r.err(); err != nil {
				return err
			}
			w.startQuery(ctx, qid, specBytes)
		case mtStopQuery:
			qid := r.str("stop qid")
			if err := r.err(); err != nil {
				return err
			}
			w.mu.Lock()
			cancel := w.queries[qid]
			w.mu.Unlock()
			if cancel != nil {
				cancel()
			} else {
				// Never started (or already finished): answer anyway so the
				// head's stop wait does not ride out its timeout.
				var sb wbuf
				sb.str(qid)
				sb.bytes(nil)
				w.send(mtStopped, sb.b)
			}
		default:
			return fmt.Errorf("%w: control frame 0x%02x", ErrCorrupt, typ)
		}
	}
}

// startQuery acks the spec and runs the query's task-manager threads in
// the background until the head says stop.
func (w *workerRT) startQuery(ctx context.Context, qid string, specBytes []byte) {
	ack := func(ok bool, msg string) {
		var a wbuf
		a.str(qid)
		a.boolean(ok)
		a.str(msg)
		w.send(mtStartAck, a.b)
	}
	spec, err := engine.DecodeWorkerSpec(specBytes)
	if err != nil {
		ack(false, err.Error())
		return
	}
	if spec.QueryID != qid {
		ack(false, fmt.Sprintf("spec query id %q under start frame %q", spec.QueryID, qid))
		return
	}
	if w.cfg.Slots > 0 && spec.Cfg.ThreadsPerWorker > w.cfg.Slots {
		spec.Cfg.ThreadsPerWorker = w.cfg.Slots
	}
	if w.cfg.MemoryBudget > 0 {
		spec.Cfg.MemoryBudget = w.cfg.MemoryBudget
	}

	qctx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	if _, dup := w.queries[qid]; dup {
		w.mu.Unlock()
		cancel()
		ack(false, "query already running")
		return
	}
	w.queries[qid] = cancel
	w.mu.Unlock()
	ack(true, "")

	go func() {
		defer cancel()
		sink := &sinkClient{p: w.pool, qid: qid}
		onFail := func(ferr error) {
			var f wbuf
			f.str(qid)
			f.str(ferr.Error())
			w.send(mtFail, f.b)
		}
		spans, runErr := engine.RunWorkerQuery(qctx, w.cl, spec, w.self, sink, onFail)
		if runErr != nil {
			onFail(runErr)
		}
		w.cl.GCS.(*gcsClient).forget(engine.QueryNamespace(qid)) // stopped here: the replica goes with it
		var spansGob []byte
		if len(spans) > 0 {
			var buf bytes.Buffer
			if gob.NewEncoder(&buf).Encode(spans) == nil {
				spansGob = buf.Bytes()
			}
		}
		w.mu.Lock()
		delete(w.queries, qid)
		w.mu.Unlock()
		var sb wbuf
		sb.str(qid)
		sb.bytes(spansGob)
		w.send(mtStopped, sb.b)
	}()
}
