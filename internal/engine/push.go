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
// task commits, for pushes to consumers on this worker. Where the policy
// elides local pieces, which consumers are local is decided here, once, by
// cs.snap — the image pushPiece places the first push by.
func (t *taskManager) encodeOutput(cs *chanState, p *pendingTask, edges []Edge) error {
	var out taskOutput
	for _, b := range p.outs {
		if b.NumRows() > 0 {
			out.outs = append(out.outs, b)
			p.outRows += int64(b.NumRows())
		}
	}
	p.outs = nil
	if p.outRows == 0 {
		return nil
	}
	if len(edges) == 0 {
		whole, err := out.concat()
		if err != nil {
			return err
		}
		p.payload = batch.EncodeCompressed(whole)
		return nil
	}
	var local func(stage, ch int) bool
	if t.r.ft.elidesLocal() {
		local = func(stage, ch int) bool { return cs.snap.chans[stage][ch].place == int(t.w.ID) }
	}
	var err error
	p.payload, p.pieces, err = t.encodePieces(&out, edges, cs.id.Channel, local)
	return err
}

// taskOutput is a non-empty task output as its operator returned it: a list
// of batches, routed straight from the list by a hash edge and concatenated
// only for an edge that sends it whole, then once for every such edge.
type taskOutput struct {
	outs  []*batch.Batch // none of them empty
	whole *batch.Batch
}

// concat is the output as one batch.
func (o *taskOutput) concat() (*batch.Batch, error) {
	if o.whole == nil {
		var err error
		if o.whole, err = batch.Concat(o.outs); err != nil {
			return nil, err
		}
	}
	return o.whole, nil
}

// pieceBufs recycles the buffers piece sets are built in: a set is
// assembled in a pooled buffer that has already grown to a typical task's
// size, then copied once into the exactly sized container that mailboxes,
// the backup and the spool hold on to.
var pieceBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodePieces serializes a non-empty output for every consumer edge of
// its stage into one piece set and indexes it, with the batch behind each
// piece. prodChannel is the producing channel (used by direct edges). local,
// when set, names the consumer channels on this worker, whose non-empty
// pieces are elided instead of encoded.
func (t *taskManager) encodePieces(out *taskOutput, edges []Edge, prodChannel int, local func(stage, ch int) bool) ([]byte, pieceSet, error) {
	bp := pieceBufs.Get().(*[]byte)
	w := beginPieceSet((*bp)[:0], edges, t.r.par)
	var err error
	for _, e := range edges {
		if err = t.partitionFor(&w, out, e, prodChannel, local); err != nil {
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

// partitionFor splits a non-empty output for one consumer edge and appends
// one encoded piece per consumer channel to the piece set (an empty
// partition is a zero-length piece; a broadcast edge is one shared piece,
// local only when every channel is). prodChannel is the producing channel
// (used by direct edges). A hash edge routes straight from the output's
// batches (batch.Scatter: each row hashed once, over the key encoding, and
// copied once into its channel's piece, which holds the rows concatenating
// the batches and partitioning the result would); every other edge sends
// the output whole. Routing is untouched by the codec choice or by elision
// — they only change the bytes a partition travels as, never which
// partition a row lands in.
func (t *taskManager) partitionFor(w *pieceSetWriter, out *taskOutput, e Edge, prodChannel int, local func(stage, ch int) bool) error {
	n := t.r.par[e.To]
	// elided reports whether channel ch's piece — every channel's, for ch < 0 —
	// stays a batch.
	elided := func(ch int) bool {
		if local == nil {
			return false
		}
		if ch >= 0 {
			return local(e.To, ch)
		}
		for c := 0; c < n; c++ {
			if !local(e.To, c) {
				return false
			}
		}
		return true
	}
	// put appends channel ch's piece b; nil is an empty partition.
	put := func(ch int, b *batch.Batch) {
		switch {
		case b == nil:
			w.add(nil)
		case elided(ch):
			w.elide(b)
			t.r.cElided.add(1)
		default:
			w.buf = batch.AppendCompressed(w.buf, b)
			t.r.cRawBytes.add(int64(batch.RawEncodedSize(b)))
			t.r.cWireBytes.add(int64(len(w.buf) - w.mark))
			w.add(b)
		}
	}
	// only sends the whole output to one channel of n.
	only := func(target int) error {
		whole, err := out.concat()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if i == target {
				put(i, whole)
			} else {
				put(i, nil)
			}
		}
		return nil
	}
	switch e.Part.Kind {
	case PartitionSingle:
		return only(0)
	case PartitionDirect:
		return only(prodChannel % n)
	case PartitionBroadcast:
		whole, err := out.concat()
		if err != nil {
			return err
		}
		put(-1, whole)
	case PartitionHash:
		schema := out.outs[0].Schema
		keyIdx := make([]int, len(e.Part.Keys))
		for i, k := range e.Part.Keys {
			if keyIdx[i] = schema.Index(k); keyIdx[i] < 0 {
				return fmt.Errorf("engine: partition key %q missing from output schema %s", k, schema)
			}
		}
		parts, err := batch.Scatter(out.outs, keyIdx, n)
		if err != nil {
			return err
		}
		for i, pb := range parts {
			put(i, pb)
		}
	}
	return nil
}

// pushOutputs pushes a task's pieces to the Flight servers of the consuming
// channels' workers — an elided one as its batch alone. Output-stage tasks
// deliver to the head-node collector instead. Empty partitions are still
// pushed: watermarks count them.
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
			data, b, err := p.pieces.piece(ei, cc)
			if err != nil {
				return err
			}
			dest := lineage.ChannelID{Stage: e.To, Channel: cc}
			if err := t.pushPiece(cs.snap, task, dest, e.Input, data, b, cs.cep); err != nil {
				return err
			}
			t.r.cMoved.add(1)
		}
	}
	return nil
}

// pushPiece delivers one piece to the worker hosting its consumer channel
// according to snap — the image whose global epoch fences the caller's
// commit (or replay-entry delete), so a piece placed by a stale image is
// never acknowledged. b, the batch data encodes (nil for a replay), goes
// along only to a consumer on this worker, which then need not decode; an
// elided piece (no data, a batch) can go nowhere else.
func (t *taskManager) pushPiece(snap *snapshot, from lineage.TaskName, dest lineage.ChannelID, input int, data []byte, b *batch.Batch, epoch int) error {
	wid := snap.chans[dest.Stage][dest.Channel].place
	if wid < 0 {
		return fmt.Errorf("engine: no placement for channel %s", dest)
	}
	dw := t.r.cl.Worker(cluster.WorkerID(wid))
	if len(data) == 0 && b != nil && dw.ID != t.w.ID {
		if !t.w.Alive() {
			return flight.ErrServerDown // a zombie's retry: refused like a push to the dead
		}
		return fmt.Errorf("%w: %s for %s, now on worker %d", errElidedPiece, from, dest, wid)
	}
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
