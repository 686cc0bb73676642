package engine

import (
	"bytes"
	"fmt"
	"sync"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/flight"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
)

// encodeOutput serializes a pending task's output, once: with consumer
// edges it becomes a piece set, without (the output stage) the whole-output
// frame that is the result partition. Retries, the backup and the spool all
// use the bytes; the piece set keeps the batch behind each piece until the
// task commits, for pushes to consumers on this worker.
func (t *taskManager) encodeOutput(p *pendingTask, edges []Edge, prodChannel int) error {
	if p.out.NumRows() > 0 {
		p.outRows = int64(p.out.NumRows())
		if len(edges) == 0 {
			if t.r.cfg.ShuffleCompress {
				p.payload = batch.EncodeCompressed(p.out)
			} else {
				p.payload = batch.Encode(p.out)
			}
		} else {
			var err error
			if p.payload, p.pieces, err = t.encodePieces(p.out, edges, prodChannel); err != nil {
				return err
			}
		}
	}
	p.out = nil
	return nil
}

// pieceBufs recycles the buffers piece sets are built in: a set is
// assembled in a pooled buffer that has already grown to a typical task's
// size, then copied once into the exactly sized container that mailboxes,
// the backup and the spool hold on to.
var pieceBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodePieces serializes a non-empty output for every consumer edge of
// its stage into one piece set and indexes it, with the batch behind each
// piece. prodChannel is the producing channel (used by direct edges).
func (t *taskManager) encodePieces(out *batch.Batch, edges []Edge, prodChannel int) ([]byte, pieceSet, error) {
	bp := pieceBufs.Get().(*[]byte)
	w := beginPieceSet((*bp)[:0], edges, t.r.par)
	var err error
	for _, e := range edges {
		if err = t.partitionFor(&w, out, e, prodChannel); err != nil {
			break
		}
	}
	set := bytes.Clone(w.buf)
	*bp = w.buf
	pieceBufs.Put(bp)
	if err != nil {
		return nil, nil, err
	}
	ps, err := parsePieceSet(set)
	for i := range ps {
		n := len(ps[i].data)
		ps[i].batches, w.batches = w.batches[:n:n], w.batches[n:]
	}
	return set, ps, err
}

// partitionFor splits a non-empty output batch for one consumer edge and
// appends one encoded piece per consumer channel to the piece set (an empty
// partition is a zero-length piece; a broadcast edge is one shared piece).
// prodChannel is the producing channel (used by direct edges). Routing
// (HashPartition over the key encoding) happens on the decoded batch and
// is untouched by the codec choice — compression only changes the bytes a
// partition travels as, never which partition a row lands in.
func (t *taskManager) partitionFor(w *pieceSetWriter, out *batch.Batch, e Edge, prodChannel int) error {
	n := t.r.par[e.To]
	// put appends b's piece; nil is an empty partition.
	put := func(b *batch.Batch) {
		if b != nil {
			if t.r.cfg.ShuffleCompress {
				w.buf = batch.AppendCompressed(w.buf, b)
			} else {
				w.buf = batch.AppendRaw(w.buf, b)
			}
			t.r.count(metrics.ShuffleRawBytes, int64(batch.RawEncodedSize(b)))
			t.r.count(metrics.ShuffleWireBytes, int64(len(w.buf)-w.mark))
		}
		w.add(b)
	}
	// only sends the whole output to one channel of n.
	only := func(target int) {
		for i := 0; i < n; i++ {
			if i == target {
				put(out)
			} else {
				put(nil)
			}
		}
	}
	switch e.Part.Kind {
	case PartitionSingle:
		only(0)
	case PartitionDirect:
		only(prodChannel % n)
	case PartitionBroadcast:
		put(out)
	case PartitionHash:
		for _, k := range e.Part.Keys {
			if out.Schema.Index(k) < 0 {
				return fmt.Errorf("engine: partition key %q missing from output schema %s", k, out.Schema)
			}
		}
		for _, pb := range out.HashPartition(e.Part.Keys, n) {
			if pb.NumRows() == 0 {
				pb = nil
			}
			put(pb)
		}
	}
	return nil
}

// pushOutputs pushes a task's pieces to the Flight servers of the consuming
// channels' workers. Output-stage tasks deliver to the head-node collector
// instead. Empty partitions are still pushed: watermarks count them.
func (t *taskManager) pushOutputs(cs *chanState, task lineage.TaskName, p *pendingTask, edges []Edge) error {
	if len(edges) == 0 {
		if !t.r.sink.Deliver(task, p.payload, cs.cep) {
			// Cursor backpressure: the head-node buffer is full. Keep the
			// task pending (uncommitted) and retry once the consumer pulls.
			return errCollectorFull
		}
		return nil
	}
	for ei, e := range edges {
		for cc := 0; cc < t.r.par[e.To]; cc++ {
			data, b, _ := p.pieces.piece(ei, cc)
			dest := lineage.ChannelID{Stage: e.To, Channel: cc}
			if err := t.pushPiece(cs.snap, task, dest, e.Input, data, b, cs.cep); err != nil {
				return err
			}
			t.r.count(metrics.PartitionsMoved, 1)
		}
	}
	return nil
}

// pushPiece delivers one piece to the worker hosting its consumer channel
// according to snap — the image whose global epoch fences the caller's
// commit (or replay-entry delete), so a piece placed by a stale image is
// never acknowledged. b, the batch data encodes (nil for a replay), goes
// along only to a consumer on this worker, which then need not decode.
func (t *taskManager) pushPiece(snap *snapshot, from lineage.TaskName, dest lineage.ChannelID, input int, data []byte, b *batch.Batch, epoch int) error {
	wid := snap.chans[dest.Stage][dest.Channel].place
	if wid < 0 {
		return fmt.Errorf("engine: no placement for channel %s", dest)
	}
	dw := t.r.cl.Worker(cluster.WorkerID(wid))
	local := dw.ID == t.w.ID || len(data) == 0
	p := flight.Partition{
		Query: t.r.qid, From: from, Dest: dest, Input: input, Data: data,
		Epoch: epoch, Local: local,
	}
	if local {
		p.Batch = b
	}
	if err := dw.Peer.Push(p); err != nil {
		return err
	}
	if !local {
		// The flight server counts network traffic into the cluster
		// collector; attribute it to this query as well.
		t.r.qmet.Add(metrics.NetworkBytes, int64(len(data)))
		t.r.qmet.Add(metrics.NetworkPushes, 1)
	}
	return nil
}

// errCollectorFull is the transient push failure raised when the streaming
// cursor's head-node buffer is full; like a dead-consumer push failure it
// keeps the task pending instead of failing the query.
var errCollectorFull = fmt.Errorf("engine: head-node cursor buffer full")
