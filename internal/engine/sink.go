package engine

import "quokka/internal/lineage"

// ResultSink receives the output stage's partitions as their tasks commit.
// In memory it is the head-node collector itself; in process mode the
// worker's sink is a wire client that relays deliveries to the head, which
// feeds them into the same collector.
//
// Deliver offers a payload partition (data may be empty: watermark filler).
// It reports false under cursor backpressure (the head-node buffer is full):
// the producing task then stays pending and retries, exactly as with a
// failed push. Deliveries are idempotent by task name, so retries and
// recovery replays are harmless.
type ResultSink interface {
	Deliver(t lineage.TaskName, data []byte, epoch int) bool
}
