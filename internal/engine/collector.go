package engine

import (
	"context"
	"fmt"
	"sync"

	"quokka/internal/lineage"
)

// collector receives the output stage's partitions on the head node. It
// deduplicates retransmissions by task name, so recovery replays are
// harmless.
//
// With worker-side result spooling (the default) an entry is usually just
// a manifest — the payload stays on the producing worker and the entry
// records where; the cursor (or the completion drain) fetches the bytes on
// demand. The backpressure accounting always charges the real payload
// size, manifest or not, so the buffer bound means the same thing in both
// modes.
//
// When a Cursor is attached it doubles as the streaming buffer: partitions
// are released as the cursor consumes them (the consumed prefix is then
// tracked as a per-channel watermark so replayed retransmissions stay
// deduplicated), and deliveries beyond the configured buffer bound are
// rejected — the producing task then simply stays pending and retries,
// which turns the head-node buffer bound into end-to-end backpressure
// through the existing task-retry machinery.
type collector struct {
	mu   sync.Mutex
	cond *sync.Cond

	parts map[lineage.TaskName]resultPart
	bytes int64 // accounted payload bytes (spooled entries count their real size)

	outStage  int
	channels  int
	doneCount []int // committed task count per output channel; -1 = unknown
	committed []int // lineage-committed task count per channel (monotonic)
	read      []int // cursor watermark: partitions consumed + released

	streaming bool  // a cursor is attached
	limit     int64 // buffer bound while streaming; <=0 = unbounded
	needCh    int   // next partition the cursor will pull; always accepted
	needSeq   int

	term    bool // query reached a terminal state
	termErr error
}

// resultPart is one output partition at the head: either the payload
// itself (data non-nil or a consumed empty partition) or a manifest
// pointing at the worker spooling it.
type resultPart struct {
	data    []byte
	size    int64 // real payload size, accounted against the buffer bound
	epoch   int   // producing channel's rewind epoch at delivery
	spooled bool
	worker  int // spooling worker, when spooled
}

// spoolRef names a spooled entry for the completion drain.
type spoolRef struct {
	task   lineage.TaskName
	worker int
}

func newCollector(outStage, channels int) *collector {
	c := &collector{
		parts:     make(map[lineage.TaskName]resultPart),
		outStage:  outStage,
		channels:  channels,
		doneCount: make([]int, channels),
		committed: make([]int, channels),
		read:      make([]int, channels),
	}
	for i := range c.doneCount {
		c.doneCount[i] = -1
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Deliver offers a payload partition to the head node. It reports false
// only under cursor backpressure (buffer full); the producing task must
// then retry.
func (c *collector) Deliver(t lineage.TaskName, data []byte, epoch int) bool {
	return c.admit(t, resultPart{data: data, size: int64(len(data)), epoch: epoch})
}

// DeliverSpooled offers a manifest: the payload (size bytes) stays spooled
// on the given worker. Backpressure semantics are identical to Deliver.
func (c *collector) DeliverSpooled(t lineage.TaskName, worker int, size int64, epoch int) bool {
	return c.admit(t, resultPart{size: size, epoch: epoch, spooled: true, worker: worker})
}

func (c *collector) admit(t lineage.TaskName, p resultPart) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Channel < c.channels {
		if t.Seq < c.read[t.Channel] {
			return true // already consumed through the cursor; drop the rerun
		}
		if n := c.doneCount[t.Channel]; n >= 0 && t.Seq >= n {
			// The channel committed exactly n tasks; this is the leftover of
			// an aborted task from a pre-rewind incarnation. Accept-and-drop:
			// its commit is doomed to be fenced off anyway, and refusing would
			// put the producer into a pointless backpressure retry loop.
			return true
		}
	}
	if old, ok := c.parts[t]; ok {
		if old.epoch > p.epoch {
			// Zombie delivery: a worker declared dead (or a task of a since-
			// rewound channel) can still be mid-push and land after the new
			// incarnation re-delivered this seq, possibly with different
			// content. Accept-and-drop, mirroring the flight mailbox.
			return true
		}
		c.bytes -= old.size
	} else if c.streaming && c.limit > 0 && c.bytes+p.size > c.limit &&
		!(t.Channel == c.needCh && t.Seq == c.needSeq) {
		// Buffer full and this is not the partition the cursor is waiting
		// for: refuse, so the producer keeps it pending. The next-needed
		// partition is always accepted, which keeps the cursor livelock-free
		// even when out-of-order channels fill the buffer.
		return false
	}
	c.parts[t] = p
	c.bytes += p.size
	c.cond.Broadcast()
	return true
}

func (c *collector) has(t lineage.TaskName) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Channel < c.channels && t.Seq < c.read[t.Channel] {
		return true
	}
	_, ok := c.parts[t]
	return ok
}

// hasSpooledOn reports whether the entry for t is still a manifest
// pointing at the given worker.
func (c *collector) hasSpooledOn(t lineage.TaskName, worker int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[t]
	return ok && p.spooled && p.worker == worker
}

// spooledRefs snapshots the entries whose payloads are still on workers.
func (c *collector) spooledRefs() []spoolRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []spoolRef
	for t, p := range c.parts {
		if p.spooled {
			out = append(out, spoolRef{task: t, worker: p.worker})
		}
	}
	return out
}

func (c *collector) spooledCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.parts {
		if p.spooled {
			n++
		}
	}
	return n
}

// materialize replaces a manifest with its fetched payload. It reports
// false when the entry changed while the fetch was in flight (consumed by
// the cursor, or re-delivered after a rewind) — the caller must then NOT
// drop the worker-side spool it fetched from.
func (c *collector) materialize(t lineage.TaskName, worker int, data []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[t]
	if !ok || !p.spooled || p.worker != worker {
		return false
	}
	c.parts[t] = resultPart{data: data, size: p.size, epoch: p.epoch}
	c.cond.Broadcast()
	return true
}

// invalidateSpooledExcept drops manifests pointing at workers outside the
// alive set: their payloads died with the worker. Called after recovery
// reconciliation; the rewound output channels re-execute and re-deliver
// these partitions (deliveries below the cursor's read watermark stay
// deduplicated, so nothing is ever consumed twice).
func (c *collector) invalidateSpooledExcept(alive map[int]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for t, p := range c.parts {
		if p.spooled && !alive[p.worker] {
			c.bytes -= p.size
			delete(c.parts, t)
		}
	}
}

// setDoneCount records the committed task count of a finished output
// channel (which commits all of its tasks by definition).
func (c *collector) setDoneCount(channel, n int) {
	c.mu.Lock()
	if c.doneCount[channel] != n {
		c.doneCount[channel] = n
		// Deliveries at seq >= n are leftovers of tasks whose commit was
		// aborted (a recovery barrier fences whole group-commit flushes) and
		// whose channel was then rewound and re-executed with different task
		// boundaries, finishing in fewer, coarser tasks. They are not part of
		// the committed output — drop them so Result never assembles them.
		for t, p := range c.parts {
			if t.Channel == channel && t.Seq >= n {
				c.bytes -= p.size
				delete(c.parts, t)
			}
		}
		c.cond.Broadcast()
	}
	if n > c.committed[channel] {
		c.committed[channel] = n
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// setCommitted raises an output channel's lineage-committed task count.
// The cursor only ever consumes partitions below it: a delivered-but-
// uncommitted partition may still be aborted (its worker dying before the
// commit) and re-executed with different task boundaries, so releasing it
// to the consumer would break exactly-once streaming. Monotonic: recovery
// rewinds re-commit the same task prefix with identical contents (replay
// retraces committed lineage), so an observed commit never un-happens.
func (c *collector) setCommitted(channel, n int) {
	c.mu.Lock()
	if n > c.committed[channel] {
		c.committed[channel] = n
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// terminate marks the query terminal (nil err = clean completion), waking
// any blocked cursor.
func (c *collector) terminate(err error) {
	c.mu.Lock()
	c.term = true
	c.termErr = err
	c.cond.Broadcast()
	c.mu.Unlock()
}

// stream switches the collector into cursor mode with the given buffer
// bound (<=0 = unbounded).
func (c *collector) stream(limit int64) {
	c.mu.Lock()
	c.streaming = true
	c.limit = limit
	c.mu.Unlock()
}

// wake broadcasts the collector's condition; context cancellation hooks
// use it to unblock a waiting cursor.
func (c *collector) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// next blocks until the next output partition in (channel, seq) order is
// available AND lineage-committed (the head node is a consumer, and
// consumers only ever consume committed inputs — an uncommitted delivery
// may still be aborted and re-executed with different boundaries), then
// consumes and releases it, returning its payload. Spooled partitions are
// fetched from their worker through the fetch callback (invoked without
// the collector lock held); a fetch failure means the worker died — the
// stale manifest is invalidated and next waits for recovery to re-deliver
// the partition. drop releases the worker-side spool once its entry has
// been consumed.
//
// It returns (nil, false, nil) at end of stream, ctx.Err() when ctx is
// cancelled, and the query's terminal error if it failed. Empty payloads
// (empty partitions) are returned like any other; the cursor skips them.
func (c *collector) next(ctx context.Context,
	fetch func(t lineage.TaskName, worker int) ([]byte, error),
	drop func(t lineage.TaskName, worker int)) (data []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		// Skip past exhausted channels.
		for c.needCh < c.channels && c.doneCount[c.needCh] >= 0 && c.needSeq >= c.doneCount[c.needCh] {
			c.needCh++
			c.needSeq = 0
		}
		if c.needCh >= c.channels {
			return nil, false, nil
		}
		t := lineage.TaskName{Stage: c.outStage, Channel: c.needCh, Seq: c.needSeq}
		if p, found := c.parts[t]; found && c.needSeq < c.committed[c.needCh] {
			if !p.spooled {
				delete(c.parts, t)
				c.bytes -= p.size
				c.read[c.needCh] = c.needSeq + 1
				c.needSeq++
				return p.data, true, nil
			}
			// Manifest: pull the payload from its worker, lock released.
			worker := p.worker
			c.mu.Unlock()
			fetched, ferr := fetch(t, worker)
			c.mu.Lock()
			if ferr != nil {
				// The worker died under us. Invalidate the stale manifest
				// (unless it was already replaced) and wait for the rewound
				// output channel to re-deliver the partition.
				if cur, ok := c.parts[t]; ok && cur.spooled && cur.worker == worker {
					c.bytes -= cur.size
					delete(c.parts, t)
				}
				continue
			}
			// Confirm the entry is unchanged before consuming: a rewind may
			// have re-delivered it (necessarily from a different, live
			// worker) while the fetch was in flight.
			if cur, ok := c.parts[t]; ok && cur.spooled && cur.worker == worker {
				delete(c.parts, t)
				c.bytes -= cur.size
				c.read[c.needCh] = c.needSeq + 1
				c.needSeq++
				drop(t, worker)
				return fetched, true, nil
			}
			continue
		}
		if c.term {
			if c.termErr != nil {
				return nil, false, c.termErr
			}
			return nil, false, fmt.Errorf("engine: result partition %d.%d missing after completion", c.needCh, c.needSeq)
		}
		c.cond.Wait()
	}
}

// snapshot returns the buffered payloads. Spooled entries have been
// drained to the head before the query reports completion, so after a
// successful Wait every remaining entry carries its payload.
func (c *collector) snapshot() map[lineage.TaskName][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[lineage.TaskName][]byte, len(c.parts))
	for k, v := range c.parts {
		if !v.spooled {
			out[k] = v.data
		}
	}
	return out
}
