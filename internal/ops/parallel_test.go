package ops

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// testPool returns a pool bounded by the given number of slots.
func testPool(slots int) *Pool {
	return NewPool(make(chan struct{}, slots), nil)
}

// rowSet renders every row of the batches as a string and sorts them: the
// canonical multiset used to compare serial vs partitioned results, which
// may differ in row order but never in content.
func rowSet(t *testing.T, batches []*batch.Batch) []string {
	t.Helper()
	var rows []string
	for _, b := range batches {
		if b == nil {
			continue
		}
		for r := 0; r < b.NumRows(); r++ {
			row := ""
			for _, c := range b.Cols {
				row += fmt.Sprintf("|%v", c.Value(r))
			}
			rows = append(rows, row)
		}
	}
	sort.Strings(rows)
	return rows
}

// joinInputs builds a build side and probe side with heavy key duplication
// plus deliberate same-partition collisions: for every build key, another
// distinct key hashing to the same partition (at every tested partition
// count) is also present, so partitions hold multiple distinct keys.
func parJoinInputs(t *testing.T, nBuild, nProbe int) (build, probe []*batch.Batch) {
	t.Helper()
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String))
	ps := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	var bk []int64
	var bn []string
	for i := 0; i < nBuild; i++ {
		k := int64(i % 17)
		bk = append(bk, k, collidingKey(t, k))
		bn = append(bn, fmt.Sprintf("n%d", i), fmt.Sprintf("c%d", i))
	}
	var pk []int64
	var pv []float64
	for i := 0; i < nProbe; i++ {
		k := int64(i % 23) // some keys miss the build side entirely
		pk = append(pk, k)
		pv = append(pv, float64(i))
	}
	mk := func(s *batch.Schema, cols []*batch.Column, rows int) []*batch.Batch {
		b := batch.MustNew(s, cols)
		// Two batches so operators see multi-batch arrival.
		cut := rows / 2
		return []*batch.Batch{b.Slice(0, cut), b.Slice(cut, rows)}
	}
	build = mk(bs, []*batch.Column{batch.NewIntColumn(bk), batch.NewStringColumn(bn)}, len(bk))
	probe = mk(ps, []*batch.Column{batch.NewIntColumn(pk), batch.NewFloatColumn(pv)}, len(pk))
	return build, probe
}

// collidingKey finds a key distinct from k that lands in k's partition at
// every partition count the tests use — a forced hash collision at the
// partition level.
func collidingKey(t *testing.T, k int64) int64 {
	t.Helper()
	var kb, cb []byte
	s := batch.NewSchema(batch.F("k", batch.Int64))
	for c := k + 1000; c < k+100000; c++ {
		b := batch.MustNew(s, []*batch.Column{batch.NewIntColumn([]int64{k, c})})
		kb = batch.AppendKey(kb[:0], b, []int{0}, 0)
		cb = batch.AppendKey(cb[:0], b, []int{0}, 1)
		same := true
		for _, p := range []int{2, 3, 5, 8} {
			if PartitionOf(kb, p) != PartitionOf(cb, p) {
				same = false
				break
			}
		}
		if same {
			return c
		}
	}
	t.Fatal("no colliding key found")
	return 0
}

// TestParallelJoinMatchesSerial checks all four join types: the
// partitioned join must produce a row-set identical to the serial join at
// every partition count, including duplicate keys and same-partition
// distinct keys.
func TestParallelJoinMatchesSerial(t *testing.T) {
	build, probe := parJoinInputs(t, 60, 90)
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		spec := NewHashJoinSpec(typ, []string{"k"}, []string{"k"}).(ParallelSpec)
		serial := spec.New(0, 1)
		var want []*batch.Batch
		want = append(want, consumeAll(t, serial, 0, build...)...)
		want = append(want, consumeAll(t, serial, 1, probe...)...)
		want = append(want, finalize(t, serial)...)
		wantRows := rowSet(t, want)
		for _, p := range []int{2, 3, 5, 8} {
			par := spec.NewParallel(0, 1, p, testPool(4))
			if got := par.(Partitioned).Partitions(); got != p {
				t.Fatalf("%s p=%d: Partitions() = %d", typ, p, got)
			}
			var out []*batch.Batch
			out = append(out, consumeAll(t, par, 0, build...)...)
			out = append(out, consumeAll(t, par, 1, probe...)...)
			out = append(out, finalize(t, par)...)
			if gotRows := rowSet(t, out); !reflect.DeepEqual(gotRows, wantRows) {
				t.Errorf("%s p=%d: %d rows vs serial %d rows", typ, p, len(gotRows), len(wantRows))
			}
		}
	}
}

// TestParallelJoinEmptyBuild: partitions that never see a build row must
// still emit schema-consistent output for left-outer and anti joins.
func TestParallelJoinEmptyBuild(t *testing.T) {
	_, probe := parJoinInputs(t, 4, 40)
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		spec := NewHashJoinSpec(typ, []string{"k"}, []string{"k"}).(ParallelSpec)
		serial := spec.New(0, 1)
		want := rowSet(t, consumeAll(t, serial, 1, probe...))
		par := spec.NewParallel(0, 1, 4, testPool(4))
		got := rowSet(t, consumeAll(t, par, 1, probe...))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: empty-build mismatch: %d vs %d rows", typ, len(got), len(want))
		}
	}
}

// TestParallelAggMatchesSerialBytes: the partitioned aggregation's
// finalized output must be byte-identical to the serial operator's — the
// merge step restores the global key-sorted order recovery and the
// distributed-equality tests rely on.
func TestParallelAggMatchesSerialBytes(t *testing.T) {
	build, _ := parJoinInputs(t, 200, 0)
	spec := NewHashAggSpec([]string{"k"},
		Sum("s", expr.C("k")), CountStar("c"), Min("lo", expr.C("name")), Max("hi", expr.C("name")),
	).(ParallelSpec)
	serial := spec.New(0, 1)
	consumeAll(t, serial, 0, build...)
	want := finalize(t, serial)
	if len(want) != 1 {
		t.Fatalf("serial finalize: %d batches", len(want))
	}
	for _, p := range []int{2, 3, 5, 8} {
		par := spec.NewParallel(0, 1, p, testPool(4))
		consumeAll(t, par, 0, build...)
		got := finalize(t, par)
		if len(got) != 1 {
			t.Fatalf("p=%d finalize: %d batches", p, len(got))
		}
		if string(batch.Encode(got[0])) != string(batch.Encode(want[0])) {
			t.Errorf("p=%d: output not byte-identical to serial:\nwant %v\ngot  %v", p, want[0], got[0])
		}
	}
}

// TestParallelAggGlobalFallsBackToSerial: a global aggregate has a single
// group, so NewParallel must return the serial operator (P partitions
// would emit P default rows).
func TestParallelAggGlobalFallsBackToSerial(t *testing.T) {
	spec := NewHashAggSpec(nil, CountStar("c")).(ParallelSpec)
	op := spec.NewParallel(0, 1, 4, testPool(4))
	if _, ok := op.(*HashAgg); !ok {
		t.Fatalf("global agg NewParallel returned %T, want *HashAgg", op)
	}
	spec2 := NewHashAggSpec([]string{"k"}, CountStar("c")).(ParallelSpec)
	if op2 := spec2.NewParallel(0, 1, 1, testPool(4)); !isSerialAgg(op2) {
		t.Fatalf("partitions=1 returned %T, want *HashAgg", op2)
	}
}

func isSerialAgg(op Operator) bool {
	_, ok := op.(*HashAgg)
	return ok
}

// TestQuickParallelMatchesSerial is the property-style gate: random keys
// and values, random partition counts — partitioned join and agg must
// match the serial row multiset (agg: byte-identical).
func TestQuickParallelMatchesSerial(t *testing.T) {
	f := func(keys []int64, vals []float64, pRaw uint8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return true
		}
		p := int(pRaw)%7 + 2
		s := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
		in := batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(keys[:n]), batch.NewFloatColumn(vals[:n]),
		})

		aggSpec := NewHashAggSpec([]string{"k"}, Sum("s", expr.C("v")), CountStar("c")).(ParallelSpec)
		serialAgg := aggSpec.New(0, 1)
		serialAgg.Consume(0, in)
		wantAgg, err := serialAgg.Finalize()
		if err != nil {
			return false
		}
		parAgg := aggSpec.NewParallel(0, 1, p, testPool(3))
		if _, err := parAgg.Consume(0, in); err != nil {
			return false
		}
		gotAgg, err := parAgg.Finalize()
		if err != nil || len(gotAgg) != len(wantAgg) {
			return false
		}
		if len(wantAgg) == 1 && string(batch.Encode(gotAgg[0])) != string(batch.Encode(wantAgg[0])) {
			return false
		}

		bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("bv", batch.Float64))
		buildIn := batch.MustNew(bs, []*batch.Column{
			batch.NewIntColumn(keys[:n]), batch.NewFloatColumn(vals[:n]),
		})
		joinSpec := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).(ParallelSpec)
		serialJoin := joinSpec.New(0, 1)
		serialJoin.Consume(0, buildIn)
		wantJoin, err := serialJoin.Consume(1, in)
		if err != nil {
			return false
		}
		parJoin := joinSpec.NewParallel(0, 1, p, testPool(3))
		if _, err := parJoin.Consume(0, buildIn); err != nil {
			return false
		}
		gotJoin, err := parJoin.Consume(1, in)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(rowSetQuick(wantJoin), rowSetQuick(gotJoin))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func rowSetQuick(batches []*batch.Batch) []string {
	var rows []string
	for _, b := range batches {
		for r := 0; r < b.NumRows(); r++ {
			row := ""
			for _, c := range b.Cols {
				row += fmt.Sprintf("|%v", c.Value(r))
			}
			rows = append(rows, row)
		}
	}
	sort.Strings(rows)
	return rows
}

// TestParallelJoinSnapshotRestore: snapshotting a partitioned join and
// restoring into a fresh instance must preserve probe results.
func TestParallelJoinSnapshotRestore(t *testing.T) {
	build, probe := parJoinInputs(t, 40, 60)
	spec := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).(ParallelSpec)
	op := spec.NewParallel(0, 1, 4, testPool(4)).(*parallelJoin)
	consumeAll(t, op, 0, build...)
	snap, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := rowSet(t, consumeAll(t, op, 1, probe...))

	op2 := spec.NewParallel(0, 1, 4, testPool(4)).(*parallelJoin)
	if err := op2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := rowSet(t, consumeAll(t, op2, 1, probe...))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored probe mismatch: %d vs %d rows", len(got), len(want))
	}
	if op.StateBytes() != op2.StateBytes() {
		t.Errorf("state bytes %d vs %d", op.StateBytes(), op2.StateBytes())
	}
}

// TestParallelAggSnapshotRestore: snapshot/restore round-trips partitioned
// aggregation state, including continuing to accumulate after restore.
func TestParallelAggSnapshotRestore(t *testing.T) {
	build, _ := parJoinInputs(t, 120, 0)
	spec := NewHashAggSpec([]string{"k"}, Sum("s", expr.C("k")), CountStar("c")).(ParallelSpec)

	op := spec.NewParallel(0, 1, 4, testPool(4)).(*parallelAgg)
	op2 := spec.NewParallel(0, 1, 4, testPool(4)).(*parallelAgg)
	consumeAll(t, op, 0, build[0])
	snap, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := op2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	consumeAll(t, op, 0, build[1])
	consumeAll(t, op2, 0, build[1])
	want := finalize(t, op)
	got := finalize(t, op2)
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("finalize batches: %d vs %d", len(want), len(got))
	}
	if string(batch.Encode(got[0])) != string(batch.Encode(want[0])) {
		t.Errorf("restored agg differs:\nwant %v\ngot  %v", want[0], got[0])
	}
}

// TestPoolPropagatesError: the first partition error must surface.
func TestPoolPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := testPool(2).Run(5, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if err := (*Pool)(nil).Run(3, func(int) error { return nil }); err != nil {
		t.Fatalf("nil pool: %v", err)
	}
}
