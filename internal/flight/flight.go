// Package flight implements the per-worker shuffle transport — the role
// the Apache Arrow Flight server plays in the paper's Quokka (§IV-A).
//
// Producers push encoded partitions directly to the Flight server of each
// downstream consumer's worker. A partition is addressed by its producer
// task name plus the consuming channel and input edge. Contents live in
// worker memory and die with the worker; durability comes from the
// producer-side upstream backup, not from the mailbox.
//
// Pushes are idempotent (retransmissions during recovery overwrite), and
// the consumer-side API exposes exactly what Algorithm 1 needs: which
// contiguous producer sequence numbers are available for a channel.
package flight

import (
	"fmt"
	"sync"

	"quokka/internal/batch"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

// Partition is one pushed shuffle piece: the bytes of an encoded batch,
// produced by task From of query Query, destined for consumer channel Dest
// on its input edge Input.
type Partition struct {
	// Query is the submitting query's id. Channel and task names are only
	// unique within one query; the mailbox keys every slot by query id so
	// concurrent queries on one cluster never read each other's partitions.
	Query string
	From  lineage.TaskName
	Dest  lineage.ChannelID
	Input int
	Data  []byte
	// Epoch is the producing channel's rewind epoch. A worker that is
	// already considered dead can still be mid-push (its "crash" cannot
	// preempt an in-flight delivery), and such a zombie push may land after
	// recovery has rewound the producer and its new incarnation — executing
	// with different dynamic task boundaries — has re-pushed the same
	// sequence number. The mailbox therefore never lets a lower-epoch push
	// replace a higher-epoch slot. Replay re-feeds of committed partitions
	// (whose content is invariant across incarnations) use EpochCommitted.
	Epoch int
	// Local marks a same-worker delivery (producer and consumer channels
	// share the machine): no network transfer is charged, like Arrow
	// Flight's local IPC path, and the mailbox keeps Batch. A Local push may
	// carry no Data: a piece its producer never encoded travels as Batch alone.
	Local bool
	// Batch is the batch Data encodes, as its producer built it, for the
	// consumer to use instead of decoding. It never travels over the wire.
	Batch *batch.Batch
}

// Piece is one slot as Take returns it: the bytes as pushed, when a Local
// push left it the batch they encode (nil otherwise), and the slot's
// generation — which push last reached it — for the taker's Drop.
type Piece struct {
	Data  []byte
	Batch *batch.Batch
	Gen   uint64
}

// EpochCommitted marks a push that re-feeds lineage-committed content:
// always accepted, since committed partitions are byte-identical across
// channel incarnations.
const EpochCommitted = int(^uint(0) >> 1)

// Peer is a worker's shuffle mailbox as any process may call it — a producer
// pushing to it, the head sweeping a query and declaring the worker dead —
// specified, like Mailbox, in docs/contracts/flight-transport.md. Server is
// the mailbox itself, in memory and in a worker process alike: each worker
// hosts its own, and in process mode everybody else holds a wire client of
// it, which is a Peer and no more.
// The semantics every implementation must preserve are the ones recovery
// leans on: pushes are idempotent within an epoch, lower-epoch (zombie)
// pushes never replace higher-epoch slots, and every operation on a
// failed worker's mailbox errors with ErrServerDown.
type Peer interface {
	Push(p Partition) error
	DropQuery(query string)
	Fail()
}

// Mailbox is the owner's view: nobody reads or frees a mailbox but the worker
// it belongs to, so these three exist only where the mailbox lives and have
// no remote form. Probe only reads; Drop frees exactly the slots a Take
// returned, by their generations.
type Mailbox interface {
	Peer
	Probe(query string, dest lineage.ChannelID, edges []Edge) []int
	Take(query string, dest lineage.ChannelID, input, upChannel, from, count int) ([]Piece, error)
	Drop(query string, dest lineage.ChannelID, input, upChannel, from int, gens []uint64)
}

// Edge names one upstream channel of a consumer channel with the consumer's
// watermark on it: the producer sequence number it will consume next.
type Edge struct {
	Input, UpChannel, Watermark int
}

// edgeKey identifies a consumer's view of one upstream channel within one
// query.
type edgeKey struct {
	query     string
	dest      lineage.ChannelID
	input     int
	upChannel int
}

// Server is one worker's mailbox. The zero value is not usable; create
// with NewServer.
type Server struct {
	cost storage.CostModel
	met  *metrics.Collector

	mu     sync.Mutex
	failed bool
	// boxes[edge][producerSeq] = encoded batch + producer epoch (+ the batch)
	boxes map[edgeKey]map[int]slot
	bytes int64  // the slots' sizes
	gen   uint64 // the generation the last push stamped

	// results holds what SpoolResult parked, swept by DropQuery and Fail.
	results map[resultKey]slot
}

// resultKey addresses one parked payload of one query.
type resultKey struct {
	query string
	task  lineage.TaskName
}

// slot is one mailbox entry: the partition bytes plus the epoch of the
// producer incarnation that pushed them, and the batch a Local push left.
// Whatever frees the slot frees the batch with it. size is what it counts
// for in BufferedBytes: its bytes, or a bytes-less slot's batch. gen is the
// mailbox-wide count of pushes when the last one reached the slot: a slot a
// later push reached has another, so a Drop by whoever took it before
// leaves it.
type slot struct {
	epoch int
	gen   uint64
	data  []byte
	batch *batch.Batch
	size  int64
}

func newSlot(p Partition) slot {
	size := int64(len(p.Data))
	if size == 0 && p.Batch != nil {
		size = p.Batch.ByteSize()
	}
	return slot{epoch: p.Epoch, data: p.Data, batch: p.Batch, size: size}
}

// NewServer creates an empty mailbox.
func NewServer(cost storage.CostModel, met *metrics.Collector) *Server {
	return &Server{
		cost:    cost,
		met:     met,
		boxes:   make(map[edgeKey]map[int]slot),
		results: make(map[resultKey]slot),
	}
}

// ErrServerDown is returned when pushing to a failed worker; per
// Algorithm 1 the producer must then abort without committing.
var ErrServerDown = fmt.Errorf("flight: server down (worker failed)")

// Push delivers a partition, applying the network transfer cost. It is
// idempotent within a producer epoch: re-pushing the same partition
// replaces it; partitions the consumer has already dropped simply reappear
// and will be ignored by the watermark. A push carrying a lower epoch than
// the slot it targets is a zombie (see Partition.Epoch) and leaves the
// slot's contents. Every push that reaches a slot, accepted or not, gives it
// a new generation: a re-push means some incarnation may want the slot, and
// the one a replay is kept for may be what refused it. Only a Local push
// keeps its Batch; any accepted push replaces the slot's. Push fails if the
// hosting worker has failed.
func (s *Server) Push(p Partition) error {
	if !p.Local {
		s.cost.Apply(s.cost.Network, int64(len(p.Data)))
		p.Batch = nil
	}
	sl := newSlot(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrServerDown
	}
	k := edgeKey{p.Query, p.Dest, p.Input, p.From.Channel}
	box := s.boxes[k]
	if box == nil {
		box = make(map[int]slot)
		s.boxes[k] = box
	}
	s.gen++
	if old, ok := box[p.From.Seq]; ok {
		if old.epoch > p.Epoch {
			old.gen = s.gen // stale push from a rewound incarnation
			box[p.From.Seq] = old
			return nil
		}
		s.bytes -= old.size
	}
	sl.gen = s.gen
	box[p.From.Seq] = sl
	s.bytes += sl.size
	if !p.Local {
		s.met.Add(metrics.NetworkBytes, int64(len(p.Data)))
		// The modelled-vs-wire split: this counter is what the COST MODEL
		// charged as network payload; net.bytes.wire (process mode) is what
		// real sockets moved, framing and control traffic included.
		s.met.Add(metrics.NetBytesModelled, int64(len(p.Data)))
		s.met.Add(metrics.NetworkPushes, 1)
	}
	return nil
}

// Probe is a consumer channel's one question per poll round: for each edge,
// how many consecutive producer sequence numbers from its watermark on are
// present — how much of that upstream channel a task can consume (inputs are
// taken in order, §III-A). It only reads: a probe under a stale image names a
// dead incarnation's watermark, and slots below it may be a rewound one's
// replays. One lock for all edges.
func (s *Server) Probe(query string, dest lineage.ChannelID, edges []Edge) []int {
	avail := make([]int, len(edges))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range edges {
		box := s.boxes[edgeKey{query, dest, e.Input, e.UpChannel}]
		for {
			if _, ok := box[e.Watermark+avail[i]]; !ok {
				break
			}
			avail[i]++
		}
	}
	return avail
}

// Take returns the partitions [from, from+count) for the consumer edge
// without removing them, each with the batch a Local push left in its slot
// and the slot's generation. It fails if any is missing.
func (s *Server) Take(query string, dest lineage.ChannelID, input, upChannel, from, count int) ([]Piece, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, ErrServerDown
	}
	box := s.boxes[edgeKey{query, dest, input, upChannel}]
	out := make([]Piece, count)
	for i := 0; i < count; i++ {
		d, ok := box[from+i]
		if !ok {
			return nil, fmt.Errorf("flight: partition %d.%d.%d for %s input %d missing",
				dest.Stage, upChannel, from+i, dest, input)
		}
		out[i] = Piece{Data: d.data, Batch: d.batch, Gen: d.gen}
	}
	return out, nil
}

// Drop frees consumed partitions from, from+1, …, one per generation in
// gens: each slot only while it holds the generation its taker was given. A
// slot a push reached since the Take — a replay, or a retrace the replay's
// epoch refused — may be a rewound incarnation's, and a late Drop by the
// old one leaves it.
func (s *Server) Drop(query string, dest lineage.ChannelID, input, upChannel, from int, gens []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	box := s.boxes[edgeKey{query, dest, input, upChannel}]
	for i, gen := range gens {
		if d, ok := box[from+i]; ok && d.gen == gen {
			s.bytes -= d.size
			delete(box, from+i)
		}
	}
}

// DropQuery clears every partition buffered for one query — shuffle
// mailboxes and parked payloads alike — leaving the other queries' state
// untouched. Called when a query completes, fails or is cancelled,
// so a torn-down query never leaks shuffle memory on the workers.
func (s *Server) DropQuery(query string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, box := range s.boxes {
		if k.query == query {
			for _, d := range box {
				s.bytes -= d.size
			}
			delete(s.boxes, k)
		}
	}
	for k := range s.results {
		if k.query == query {
			delete(s.results, k)
		}
	}
}

// SpoolResult and FetchResult park a payload on this worker under a task name
// and read it back. They are on neither contract: the engine delivers results
// to the head directly, and their one caller is the benchmark module's layer
// suite, which times them. SpoolResult is idempotent like Push — a lower-epoch
// payload never replaces a higher-epoch one — and both fail with ErrServerDown
// once the worker has died.
func (s *Server) SpoolResult(query string, task lineage.TaskName, data []byte, epoch int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrServerDown
	}
	k := resultKey{query, task}
	if old, ok := s.results[k]; ok && old.epoch > epoch {
		return nil
	}
	s.results[k] = slot{epoch: epoch, data: data}
	return nil
}

func (s *Server) FetchResult(query string, task lineage.TaskName) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return nil, ErrServerDown
	}
	d, ok := s.results[resultKey{query, task}]
	if !ok {
		return nil, fmt.Errorf("flight: spooled result %s missing", task)
	}
	return d.data, nil
}

// Fail marks the worker dead: contents are dropped and all subsequent
// operations error, exactly like a crashed Flight server.
func (s *Server) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed = true
	s.boxes = make(map[edgeKey]map[int]slot)
	s.results = make(map[resultKey]slot)
	s.bytes = 0
}

// BufferedBytes returns the current mailbox payload size. Not part of
// Mailbox: it is the probe tests read at the mailbox's authoritative end.
func (s *Server) BufferedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
