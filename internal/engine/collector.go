package engine

import (
	"context"
	"fmt"
	"sync"

	"quokka/internal/lineage"
)

// collector receives the output stage's partitions on the head node, the
// query's last consumer: an output task delivers its payload here and then
// commits. It deduplicates retransmissions by task name, so recovery replays
// are harmless.
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
	bytes int64 // buffered payload bytes

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

// resultPart is one output partition at the head.
type resultPart struct {
	data  []byte
	epoch int // producing channel's rewind epoch at delivery
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
	size := int64(len(data))
	if old, ok := c.parts[t]; ok {
		if old.epoch > epoch {
			// Zombie delivery: a worker declared dead (or a task of a since-
			// rewound channel) can still be mid-push and land after the new
			// incarnation re-delivered this seq, possibly with different
			// content. Accept-and-drop, mirroring the flight mailbox.
			return true
		}
		c.bytes -= int64(len(old.data))
	} else if c.streaming && c.limit > 0 && c.bytes+size > c.limit &&
		!(t.Channel == c.needCh && t.Seq == c.needSeq) {
		// Buffer full and this is not the partition the cursor is waiting
		// for: refuse, so the producer keeps it pending. The next-needed
		// partition is always accepted, which keeps the cursor livelock-free
		// even when out-of-order channels fill the buffer.
		return false
	}
	c.parts[t] = resultPart{data: data, epoch: epoch}
	c.bytes += size
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
				c.bytes -= int64(len(p.data))
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
// consumes and releases it, returning its payload.
//
// It returns (nil, false, nil) at end of stream, ctx.Err() when ctx is
// cancelled, and the query's terminal error if it failed. Empty payloads
// (empty partitions) are returned like any other; the cursor skips them.
func (c *collector) next(ctx context.Context) (data []byte, ok bool, err error) {
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
			delete(c.parts, t)
			c.bytes -= int64(len(p.data))
			c.read[c.needCh] = c.needSeq + 1
			c.needSeq++
			return p.data, true, nil
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

// snapshot returns the buffered payloads.
func (c *collector) snapshot() map[lineage.TaskName][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[lineage.TaskName][]byte, len(c.parts))
	for k, v := range c.parts {
		out[k] = v.data
	}
	return out
}
