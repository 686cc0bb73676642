package flight

import (
	"testing"

	"quokka/internal/batch"
	"quokka/internal/lineage"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

func newServer() *Server {
	return NewServer(storage.TestCostModel(), &metrics.Collector{})
}

func part(stage, ch, seq int, dest lineage.ChannelID, input int, data string) Partition {
	return Partition{
		Query: "q1",
		From:  lineage.TaskName{Stage: stage, Channel: ch, Seq: seq},
		Dest:  dest,
		Input: input,
		Data:  []byte(data),
	}
}

// contig asks the mailbox the one-edge form of the consumer's question: how
// many partitions are buffered in sequence from `from` on.
func contig(s *Server, query string, dest lineage.ChannelID, input, upChannel, from int) int {
	return s.Probe(query, dest, []Edge{{Input: input, UpChannel: upChannel, Watermark: from}})[0]
}

// takeGens takes [from, from+count) of an edge of q1, as a consumer task does,
// and returns the generations its Drop names.
func takeGens(t *testing.T, s *Server, dest lineage.ChannelID, input, upChannel, from, count int) []uint64 {
	t.Helper()
	pieces, err := s.Take("q1", dest, input, upChannel, from, count)
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]uint64, len(pieces))
	for i, pc := range pieces {
		gens[i] = pc.Gen
	}
	return gens
}

func TestPushTakeDrop(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	for seq := 0; seq < 3; seq++ {
		if err := s.Push(part(0, 2, seq, dest, 0, "data")); err != nil {
			t.Fatal(err)
		}
	}
	if got := contig(s, "q1", dest, 0, 2, 0); got != 3 {
		t.Errorf("contiguous from 0 = %d, want 3", got)
	}
	s.Drop("q1", dest, 0, 2, 0, takeGens(t, s, dest, 0, 2, 0, 2))
	if got := contig(s, "q1", dest, 0, 2, 0); got != 0 {
		t.Errorf("after drop contiguous from 0 = %d", got)
	}
	if got := contig(s, "q1", dest, 0, 2, 2); got != 1 {
		t.Errorf("seq 2 should remain: %d", got)
	}
}

// TestProbeBatch: one Probe answers several edges of a channel at once, each
// from its own watermark, and frees nothing: below a watermark, at or above
// it, or of an edge it was not asked about.
func TestProbeBatch(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	for seq := 0; seq < 4; seq++ {
		s.Push(part(0, 0, seq, dest, 0, "aa")) // edge (0,0): 0..3
	}
	s.Push(part(0, 1, 1, dest, 0, "bb")) // edge (0,1): 1 only — a gap at its watermark 0
	s.Push(part(0, 0, 0, dest, 1, "cc")) // edge (1,0): not probed
	got := s.Probe("q1", dest, []Edge{
		{Input: 0, UpChannel: 0, Watermark: 2},
		{Input: 0, UpChannel: 1, Watermark: 0},
		{Input: 0, UpChannel: 7, Watermark: 0}, // never pushed to
	})
	if len(got) != 3 || got[0] != 2 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("Probe = %v, want [2 0 0]", got)
	}
	if want := int64(len("aa")*4 + len("bb") + len("cc")); s.BufferedBytes() != want {
		t.Errorf("BufferedBytes = %d after probe, want %d", s.BufferedBytes(), want)
	}
	if _, err := s.Take("q1", dest, 0, 0, 0, 2); err != nil {
		t.Errorf("a partition below the watermark went with the probe: %v", err)
	}
	if got := s.Probe("q1", dest, nil); len(got) != 0 {
		t.Errorf("empty probe = %v", got)
	}
}

func TestContiguityGap(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	s.Push(part(0, 0, 0, dest, 0, "a"))
	s.Push(part(0, 0, 2, dest, 0, "c")) // gap at 1
	if got := contig(s, "q1", dest, 0, 0, 0); got != 1 {
		t.Errorf("contiguous with gap = %d, want 1", got)
	}
	if _, err := s.Take("q1", dest, 0, 0, 0, 3); err == nil {
		t.Error("Take across gap must fail")
	}
}

func TestPushIdempotent(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	s.Push(part(0, 0, 0, dest, 0, "first"))
	s.Push(part(0, 0, 0, dest, 0, "retransmit"))
	if s.BufferedBytes() != int64(len("retransmit")) {
		t.Errorf("BufferedBytes = %d after overwrite", s.BufferedBytes())
	}
	data, err := s.Take("q1", dest, 0, 0, 0, 1)
	if err != nil || string(data[0].Data) != "retransmit" {
		t.Fatalf("Take after overwrite: %q, %v", data, err)
	}
}

func TestEdgesAreIsolated(t *testing.T) {
	s := newServer()
	d1 := lineage.ChannelID{Stage: 1, Channel: 0}
	d2 := lineage.ChannelID{Stage: 2, Channel: 0}
	s.Push(part(0, 0, 0, d1, 0, "x"))
	s.Push(part(0, 0, 0, d2, 0, "y"))
	s.Push(part(0, 0, 0, d1, 1, "z")) // same dest, different input edge
	if got := contig(s, "q1", d1, 0, 0, 0); got != 1 {
		t.Errorf("d1 input0 = %d", got)
	}
	if got := contig(s, "q1", d1, 1, 0, 0); got != 1 {
		t.Errorf("d1 input1 = %d", got)
	}
	// A drop frees one edge of one channel and nothing else.
	s.Drop("q1", d1, 0, 0, 0, takeGens(t, s, d1, 0, 0, 0, 1))
	if got := contig(s, "q1", d1, 0, 0, 0); got != 0 {
		t.Error("Drop should clear d1 input 0")
	}
	if contig(s, "q1", d1, 1, 0, 0) != 1 || contig(s, "q1", d2, 0, 0, 0) != 1 {
		t.Error("Drop must not touch another edge or channel")
	}
	s.DropQuery("q1")
	if s.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after DropQuery", s.BufferedBytes())
	}
}

// handedSlots counts the slots holding a batch.
func handedSlots(s *Server) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, box := range s.boxes {
		for _, d := range box {
			if d.batch != nil {
				n++
			}
		}
	}
	return n
}

// TestHandedBatch: a Local push leaves its batch for Take, any other push
// leaves none and clears the one a slot held, a zombie cannot swap its own
// in, and whatever frees a slot frees its batch.
func TestHandedBatch(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	b := batch.MustNew(batch.NewSchema(batch.F("x", batch.Int64)), []*batch.Column{batch.NewIntColumn([]int64{7})})
	push := func(seq, epoch int, local bool, with *batch.Batch) {
		p := part(0, 0, seq, dest, 0, "data")
		p.Epoch, p.Local, p.Batch = epoch, local, with
		if err := s.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	taken := func(seq int) *batch.Batch {
		got, err := s.Take("q1", dest, 0, 0, seq, 1)
		if err != nil {
			t.Fatal(err)
		}
		return got[0].Batch
	}
	push(0, 1, true, b)
	if taken(0) != b {
		t.Fatal("a Local push's batch did not come back")
	}
	push(0, 0, true, batch.Empty(b.Schema)) // a zombie's
	if taken(0) != b {
		t.Fatal("a lower-epoch push swapped in its batch")
	}
	push(0, EpochCommitted, true, nil) // a replay
	if taken(0) != nil {
		t.Fatal("a re-push without a batch left the old one")
	}
	push(1, 1, false, b)
	if taken(1) != nil {
		t.Fatal("a cross-worker push kept its batch")
	}

	for seq := range 3 {
		push(seq, 1, true, b)
	}
	s.Drop("q1", dest, 0, 0, 0, takeGens(t, s, dest, 0, 0, 0, 1))
	contig(s, "q1", dest, 0, 0, 2) // frees nothing
	if n := handedSlots(s); n != 2 {
		t.Fatalf("%d batches held after Drop and Probe, want 2", n)
	}
	s.DropQuery("q1")
	if n := handedSlots(s); n != 0 {
		t.Fatalf("%d batches held after DropQuery", n)
	}
	push(0, 1, true, b)
	s.Fail()
	if n := handedSlots(s); n != 0 {
		t.Fatalf("%d batches held after Fail", n)
	}
}

func TestFailDropsAndRejects(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	s.Push(part(0, 0, 0, dest, 0, "x"))
	s.Fail()
	if err := s.Push(part(0, 0, 1, dest, 0, "y")); err != ErrServerDown {
		t.Errorf("Push after fail = %v", err)
	}
	if _, err := s.Take("q1", dest, 0, 0, 0, 1); err != ErrServerDown {
		t.Errorf("Take after fail = %v", err)
	}
	if s.BufferedBytes() != 0 {
		t.Error("failed server should hold nothing")
	}
}

func TestQueriesAreIsolated(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	// Two queries deliver to the SAME channel id and sequence numbers.
	p1 := part(0, 0, 0, dest, 0, "query-one")
	p2 := part(0, 0, 0, dest, 0, "query-two")
	p2.Query = "q2"
	s.Push(p1)
	s.Push(p2)
	d1, err := s.Take("q1", dest, 0, 0, 0, 1)
	if err != nil || string(d1[0].Data) != "query-one" {
		t.Fatalf("q1 Take: %q, %v", d1, err)
	}
	d2, err := s.Take("q2", dest, 0, 0, 0, 1)
	if err != nil || string(d2[0].Data) != "query-two" {
		t.Fatalf("q2 Take: %q, %v", d2, err)
	}
	// Tearing one query down leaves the other untouched.
	s.DropQuery("q1")
	if got := contig(s, "q1", dest, 0, 0, 0); got != 0 {
		t.Errorf("q1 after DropQuery = %d", got)
	}
	if got := contig(s, "q2", dest, 0, 0, 0); got != 1 {
		t.Errorf("q2 after q1 DropQuery = %d", got)
	}
	if s.BufferedBytes() != int64(len("query-two")) {
		t.Errorf("BufferedBytes = %d", s.BufferedBytes())
	}
}

func TestMetricsAccounting(t *testing.T) {
	met := &metrics.Collector{}
	s := NewServer(storage.TestCostModel(), met)
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	s.Push(part(0, 0, 0, dest, 0, "12345"))
	if met.Get(metrics.NetworkBytes) != 5 || met.Get(metrics.NetworkPushes) != 1 {
		t.Errorf("metrics: %d bytes, %d pushes",
			met.Get(metrics.NetworkBytes), met.Get(metrics.NetworkPushes))
	}
}

// Releases by an older incarnation: a slot refilled since its taker took it
// is a rewound incarnation's, and only DropQuery, Fail or a Drop naming the
// refill's generation frees it.

// TestDropAfterReplayLeavesTheReplay: an old incarnation takes a range, the
// recovery's replay refills it at EpochCommitted, and the old incarnation's
// late Drop leaves the replay for the new one.
func TestDropAfterReplayLeavesTheReplay(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	for seq := range 2 {
		s.Push(part(0, 0, seq, dest, 0, "original"))
	}
	old := takeGens(t, s, dest, 0, 0, 0, 2)
	for seq := range 2 {
		p := part(0, 0, seq, dest, 0, "replayed")
		p.Epoch = EpochCommitted
		s.Push(p)
	}
	s.Drop("q1", dest, 0, 0, 0, old)
	if got := contig(s, "q1", dest, 0, 0, 0); got != 2 {
		t.Fatalf("the old incarnation's Drop freed a replay: %d of 2 left", got)
	}
	s.Drop("q1", dest, 0, 0, 0, takeGens(t, s, dest, 0, 0, 0, 2))
	if s.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after the new incarnation's Drop", s.BufferedBytes())
	}
}

// TestDropAfterSecondReplayLeavesIt: a second recovery's replay refills a
// slot the first recovery's incarnation took — at the same epoch,
// EpochCommitted — and that incarnation's late Drop leaves it.
func TestDropAfterSecondReplayLeavesIt(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	replay := func() {
		p := part(0, 0, 0, dest, 0, "replayed")
		p.Epoch = EpochCommitted
		s.Push(p)
	}
	replay()
	first := takeGens(t, s, dest, 0, 0, 0, 1)
	replay()
	s.Drop("q1", dest, 0, 0, 0, first)
	if got := contig(s, "q1", dest, 0, 0, 0); got != 1 {
		t.Fatal("the first recovery's incarnation freed the second recovery's replay")
	}
}

// TestDropAfterARefusedPushLeavesIt: an incarnation takes a replay; after
// the recovery that rewinds it, its producer's retrace re-pushes the same
// sequence number at its own epoch and is refused — the replay's content is
// the same — and the old incarnation's late Drop must still leave the slot,
// which the new incarnation needs and nobody will push again.
func TestDropAfterARefusedPushLeavesIt(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	p := part(0, 0, 0, dest, 0, "replayed")
	p.Epoch = EpochCommitted
	s.Push(p)
	old := takeGens(t, s, dest, 0, 0, 0, 1)
	retrace := part(0, 0, 0, dest, 0, "retraced")
	retrace.Epoch = 2
	s.Push(retrace)
	s.Drop("q1", dest, 0, 0, 0, old)
	got, err := s.Take("q1", dest, 0, 0, 0, 1)
	if err != nil || string(got[0].Data) != "replayed" {
		t.Fatalf("after a refused re-push and the old taker's Drop: %q, %v; want the replay", got, err)
	}
}

// TestProbeBelowSlotsLeavesThem: a probe whose watermark lies past buffered
// slots — a round under a stale image names a dead incarnation's — answers
// and frees nothing.
func TestProbeBelowSlotsLeavesThem(t *testing.T) {
	s := newServer()
	dest := lineage.ChannelID{Stage: 1, Channel: 0}
	for seq := range 3 {
		s.Push(part(0, 0, seq, dest, 0, "r"))
	}
	if got := contig(s, "q1", dest, 0, 0, 5); got != 0 {
		t.Fatalf("probe past the slots = %d", got)
	}
	if got := contig(s, "q1", dest, 0, 0, 0); got != 3 || s.BufferedBytes() != 3 {
		t.Fatalf("after a probe past them: %d slots, %d bytes; want 3, 3", got, s.BufferedBytes())
	}
}
