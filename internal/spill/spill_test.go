package spill

import (
	"strings"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/metrics"
	"quokka/internal/storage"
)

func testCtx(budget int64, parts int) (*Context, *storage.LocalDisk, *metrics.Collector) {
	met := &metrics.Collector{}
	disk := storage.NewLocalDisk(storage.TestCostModel(), met)
	return NewContext(disk, NewAccountant(budget, met), met, parts), disk, met
}

func testBatch(vals ...int64) *batch.Batch {
	s := batch.NewSchema(batch.F("x", batch.Int64))
	return batch.MustNew(s, []*batch.Column{batch.NewIntColumn(vals)})
}

func TestAccountant(t *testing.T) {
	met := &metrics.Collector{}
	a := NewAccountant(100, met)
	if !a.TryGrow(60) || a.Used() != 60 {
		t.Fatalf("TryGrow(60): used=%d", a.Used())
	}
	if a.TryGrow(50) {
		t.Fatal("TryGrow past budget succeeded")
	}
	if a.TryGrow(41) || !a.TryGrow(40) {
		t.Fatalf("TryGrow boundary wrong at used=%d", a.Used())
	}
	a.Release(40)
	a.Grow(50) // forced: may exceed
	if a.Used() != 110 || a.Peak() != 110 {
		t.Fatalf("forced grow: used=%d peak=%d", a.Used(), a.Peak())
	}
	a.Release(110)
	if a.Used() != 0 || a.Peak() != 110 {
		t.Fatalf("release: used=%d peak=%d", a.Used(), a.Peak())
	}
	if met.Get(metrics.SpillPeakBytes) != 110 {
		t.Errorf("peak gauge = %d, want 110", met.Get(metrics.SpillPeakBytes))
	}
	if met.Get(metrics.SpillForcedPeak) != 10 {
		t.Errorf("forced past the budget = %d, want 10", met.Get(metrics.SpillForcedPeak))
	}
}

// TestPartitionBitsAreTopBits pins the routing-invariant satellite: spill
// partition indexes come from the TOP of the 64-bit hash, level by level,
// leaving the low bits — which dominate hash mod P routing — untouched.
func TestPartitionBitsAreTopBits(t *testing.T) {
	c, _, _ := testCtx(1<<20, 16) // 16 partitions = 4 bits per level
	h := uint64(0xABCD_EF01_2345_6789)
	if got := c.PartitionAt(h, 0); got != 0xA {
		t.Errorf("level 0 = %#x, want 0xA", got)
	}
	if got := c.PartitionAt(h, 1); got != 0xB {
		t.Errorf("level 1 = %#x, want 0xB", got)
	}
	if got := c.PartitionAt(h, 2); got != 0xC {
		t.Errorf("level 2 = %#x, want 0xC", got)
	}
	// Flipping low bits (the mod-P routing range) never moves a spill
	// partition at any level the recursion can reach.
	for lvl := 0; lvl < MaxDepth; lvl++ {
		if c.PartitionAt(h, lvl) != c.PartitionAt(h^0xFFFF, lvl) {
			t.Errorf("level %d partition depends on low hash bits", lvl)
		}
	}
}

func TestRunRoundTripAndManifest(t *testing.T) {
	c, disk, met := testCtx(1<<20, 4)
	o := c.NewOp("spill/ch")
	if err := o.WriteRun(2, State, testBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteRun(2, Raw, testBatch(3), testBatch(4, 5)); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteRun(0, Raw, testBatch(9)); err != nil {
		t.Fatal(err)
	}
	if got := o.Parts(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Parts() = %v", got)
	}
	runs := o.Runs(2)
	if len(runs) != 2 || runs[0].Kind != State || runs[1].Kind != Raw {
		t.Fatalf("manifest order/kind wrong: %+v", runs)
	}
	if o.PartRows(2) != 5 {
		t.Errorf("PartRows(2) = %d, want 5", o.PartRows(2))
	}
	bs, err := o.ReadRun(runs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0].Col("x").Ints[0] != 3 || bs[1].NumRows() != 2 {
		t.Fatalf("ReadRun frames wrong: %v", bs)
	}
	cur := o.OpenPart(2)
	var total int
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		total += b.NumRows()
	}
	if total != 5 {
		t.Errorf("cursor rows = %d, want 5", total)
	}
	if met.Get(metrics.SpillRuns) != 3 || met.Get(metrics.SpillPartitions) != 2 {
		t.Errorf("counters: runs=%d parts=%d", met.Get(metrics.SpillRuns), met.Get(metrics.SpillPartitions))
	}
	o.Drop()
	if got := disk.UsedBytesPrefix("spill/"); got != 0 {
		t.Errorf("Drop left %d bytes", got)
	}
}

func TestChildNamespaces(t *testing.T) {
	c, disk, _ := testCtx(1<<20, 4)
	o := c.NewOp("spill/ch")
	child := o.Child(3)
	if child.Level() != o.Level()+1 {
		t.Fatalf("child level = %d", child.Level())
	}
	if err := o.WriteRun(3, Raw, testBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := child.WriteRun(0, Raw, testBatch(2)); err != nil {
		t.Fatal(err)
	}
	keys := disk.List("spill/")
	if len(keys) != 2 {
		t.Fatalf("keys: %v", keys)
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, "spill/ch/") {
			t.Errorf("key escaped the op's namespace: %s", k)
		}
	}
	o.MarkResplit(3)
	if !o.IsResplit(3) {
		t.Error("MarkResplit not recorded")
	}
	if o.PartBytes(3) != 0 {
		t.Error("resplit partition still reports bytes")
	}
	if disk.UsedBytesPrefix("spill/ch/p03/") == 0 {
		t.Error("child runs must survive MarkResplit")
	}
	if o.WrittenRuns() != 2 {
		t.Errorf("the root counts %d runs written across its tree, want 2", o.WrittenRuns())
	}
	// Dropping the root drops its children transitively.
	o.Drop()
	if got := disk.UsedBytesPrefix("spill/"); got != 0 {
		t.Errorf("root Drop left %d bytes", got)
	}
}

func TestReserveSyncAndRelease(t *testing.T) {
	c, _, _ := testCtx(1000, 4)
	o := c.NewOp("spill/ch")
	if !o.Reserve(600) {
		t.Fatal("Reserve(600) failed under budget 1000")
	}
	if o.Reserve(600) {
		t.Fatal("Reserve past budget succeeded")
	}
	o.SyncTo(900) // settle estimate upward
	if c.Accountant().Used() != 900 {
		t.Fatalf("SyncTo(900): used=%d", c.Accountant().Used())
	}
	o.SyncTo(100)
	if c.Accountant().Used() != 100 {
		t.Fatalf("SyncTo(100): used=%d", c.Accountant().Used())
	}
	o.ReleaseAll()
	if c.Accountant().Used() != 0 || o.Reserved() != 0 {
		t.Fatalf("ReleaseAll: used=%d reserved=%d", c.Accountant().Used(), o.Reserved())
	}
	// Over-release is clamped to what the op actually holds.
	o.Reserve(50)
	o.Release(500)
	if c.Accountant().Used() != 0 {
		t.Fatalf("clamped release: used=%d", c.Accountant().Used())
	}
}

// TestStaleFilesInvisible: a fresh Op over a namespace littered with old
// files sees none of them (manifest-only reads) and may overwrite them.
func TestStaleFilesInvisible(t *testing.T) {
	c, disk, _ := testCtx(1<<20, 4)
	old := c.NewOp("spill/ch")
	for i := 0; i < 3; i++ {
		if err := old.WriteRun(1, Raw, testBatch(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Replacement incarnation: same namespace, no cleanup ran.
	fresh := c.NewOp("spill/ch")
	if got := fresh.Parts(); len(got) != 0 {
		t.Fatalf("fresh op sees stale partitions: %v", got)
	}
	if err := fresh.WriteRun(1, Raw, testBatch(42)); err != nil {
		t.Fatal(err)
	}
	bs, err := fresh.ReadRun(fresh.Runs(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || bs[0].Col("x").Ints[0] != 42 {
		t.Fatalf("fresh op read stale data: %v", bs)
	}
	disk.DeletePrefix("spill/")
}
