package ops

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

func b2(t *testing.T, ids []int64, vals []float64) *batch.Batch {
	t.Helper()
	s := batch.NewSchema(batch.F("id", batch.Int64), batch.F("v", batch.Float64))
	return batch.MustNew(s, []*batch.Column{batch.NewIntColumn(ids), batch.NewFloatColumn(vals)})
}

func consumeAll(t *testing.T, op Operator, input int, batches ...*batch.Batch) []*batch.Batch {
	t.Helper()
	var out []*batch.Batch
	for _, b := range batches {
		o, err := op.Consume(input, b)
		if err != nil {
			t.Fatalf("Consume: %v", err)
		}
		out = append(out, o...)
	}
	return out
}

func finalize(t *testing.T, op Operator) []*batch.Batch {
	t.Helper()
	o, err := op.Finalize()
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return o
}

func TestFilter(t *testing.T) {
	op := NewFilterSpec(expr.Gt(expr.C("id"), expr.Int64(2))).New(0, 1)
	out := consumeAll(t, op, 0, b2(t, []int64{1, 2, 3, 4}, []float64{1, 2, 3, 4}))
	if len(out) != 1 || out[0].NumRows() != 2 || out[0].Col("id").Ints[0] != 3 {
		t.Fatalf("filter output: %v", out)
	}
	// All pass: same batch returned.
	out = consumeAll(t, op, 0, b2(t, []int64{5, 6}, []float64{0, 0}))
	if len(out) != 1 || out[0].NumRows() != 2 {
		t.Fatalf("filter all-pass: %v", out)
	}
	// None pass: no output.
	out = consumeAll(t, op, 0, b2(t, []int64{0}, []float64{0}))
	if len(out) != 0 {
		t.Fatalf("filter none-pass: %v", out)
	}
	if got := finalize(t, op); got != nil {
		t.Fatalf("filter finalize should be empty: %v", got)
	}
}

func TestProjectAndFused(t *testing.T) {
	p := NewProjectSpec(NE("double", expr.Mul(expr.C("v"), expr.Float64(2))), NE("id", expr.C("id"))).New(0, 1)
	out := consumeAll(t, p, 0, b2(t, []int64{1, 2}, []float64{1.5, 2.5}))
	if out[0].Col("double").Floats[1] != 5.0 {
		t.Fatalf("project: %v", out[0])
	}
	if out[0].Schema.Fields[0].Name != "double" {
		t.Fatalf("project schema: %s", out[0].Schema)
	}
	fp := NewFilterProjectSpec(expr.Eq(expr.C("id"), expr.Int64(2)), NE("v", expr.C("v"))).New(0, 1)
	out = consumeAll(t, fp, 0, b2(t, []int64{1, 2}, []float64{1.5, 2.5}))
	if len(out) != 1 || out[0].NumRows() != 1 || out[0].Col("v").Floats[0] != 2.5 {
		t.Fatalf("filter-project: %v", out)
	}
}

func joinInputs(t *testing.T) (build, probe *batch.Batch) {
	t.Helper()
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String))
	build = batch.MustNew(bs, []*batch.Column{
		batch.NewIntColumn([]int64{1, 2, 2}),
		batch.NewStringColumn([]string{"one", "two-a", "two-b"}),
	})
	ps := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	probe = batch.MustNew(ps, []*batch.Column{
		batch.NewIntColumn([]int64{2, 3, 1}),
		batch.NewFloatColumn([]float64{20, 30, 10}),
	})
	return build, probe
}

func TestInnerJoin(t *testing.T) {
	build, probe := joinInputs(t)
	op := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).New(0, 1)
	if out := consumeAll(t, op, 0, build); len(out) != 0 {
		t.Fatal("build side should not emit")
	}
	out := consumeAll(t, op, 1, probe)
	if len(out) != 1 {
		t.Fatalf("join emitted %d batches", len(out))
	}
	got := out[0]
	// probe row k=2 matches two build rows, k=3 none, k=1 one => 3 rows.
	if got.NumRows() != 3 {
		t.Fatalf("join rows = %d, want 3: %v", got.NumRows(), got)
	}
	if got.Schema.Index("name") < 0 || got.Schema.Index("v") < 0 {
		t.Fatalf("join schema: %s", got.Schema)
	}
	if got.Col("name").Strings[0] != "two-a" || got.Col("name").Strings[1] != "two-b" {
		t.Fatalf("join match order: %v", got.Col("name").Strings)
	}
	if got.Col("v").Floats[2] != 10 {
		t.Fatalf("join carried probe cols: %v", got.Col("v").Floats)
	}
}

func TestSemiAntiJoin(t *testing.T) {
	build, probe := joinInputs(t)
	semi := NewHashJoinSpec(SemiJoin, []string{"k"}, []string{"k"}).New(0, 1)
	consumeAll(t, semi, 0, build)
	out := consumeAll(t, semi, 1, probe)
	if out[0].NumRows() != 2 { // k=2 and k=1 have matches (no duplication)
		t.Fatalf("semi rows: %v", out[0])
	}
	anti := NewHashJoinSpec(AntiJoin, []string{"k"}, []string{"k"}).New(0, 1)
	consumeAll(t, anti, 0, build)
	out = consumeAll(t, anti, 1, probe)
	if out[0].NumRows() != 1 || out[0].Col("k").Ints[0] != 3 {
		t.Fatalf("anti rows: %v", out[0])
	}
}

func TestLeftOuterJoin(t *testing.T) {
	build, probe := joinInputs(t)
	op := NewHashJoinSpec(LeftOuterJoin, []string{"k"}, []string{"k"}).New(0, 1)
	consumeAll(t, op, 0, build)
	out := consumeAll(t, op, 1, probe)
	got := out[0]
	if got.NumRows() != 4 { // 2 matches for k=2, 1 unmatched k=3, 1 match k=1
		t.Fatalf("left join rows = %d", got.NumRows())
	}
	m := got.Col("__matched").Bools
	if !m[0] || !m[1] || m[2] || !m[3] {
		t.Fatalf("matched flags: %v", m)
	}
	if got.Col("name").Strings[2] != "" {
		t.Fatalf("unmatched build col should be zero: %q", got.Col("name").Strings[2])
	}
}

func TestJoinEmptyBuild(t *testing.T) {
	_, probe := joinInputs(t)
	inner := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).New(0, 1)
	if out := consumeAll(t, inner, 1, probe); len(out) != 0 {
		t.Fatalf("inner join with empty build emitted %v", out)
	}
	anti := NewHashJoinSpec(AntiJoin, []string{"k"}, []string{"k"}).New(0, 1)
	out := consumeAll(t, anti, 1, probe)
	if out[0].NumRows() != probe.NumRows() {
		t.Fatal("anti join with empty build should pass everything")
	}
	semi := NewHashJoinSpec(SemiJoin, []string{"k"}, []string{"k"}).New(0, 1)
	if out := consumeAll(t, semi, 1, probe); len(out) != 0 {
		t.Fatalf("semi join with empty build emitted %v", out)
	}
	left := NewHashJoinSpec(LeftOuterJoin, []string{"k"}, []string{"k"}).New(0, 1)
	out = consumeAll(t, left, 1, probe)
	if len(out) != 1 || out[0].NumRows() != probe.NumRows() || slices.Contains(out[0].Col("__matched").Bools, true) {
		t.Fatalf("left outer join with empty build should pass everything unmatched: %v", out)
	}
}

func TestJoinColumnCollision(t *testing.T) {
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	build := batch.MustNew(bs, []*batch.Column{batch.NewIntColumn([]int64{1}), batch.NewFloatColumn([]float64{1})})
	probe := batch.MustNew(bs, []*batch.Column{batch.NewIntColumn([]int64{1}), batch.NewFloatColumn([]float64{2})})
	op := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).New(0, 1)
	consumeAll(t, op, 0, build)
	if _, err := op.Consume(1, probe); err == nil {
		t.Fatal("want collision error for duplicate non-key column")
	}
}

// TestJoinSnapshotRestore: a join restored from a snapshot of its build
// side probes exactly as the original — also over a build side of several
// batches with duplicate and hash-colliding keys.
func TestJoinSnapshotRestore(t *testing.T) {
	build, probe := joinInputs(t)
	collBuild, collProbe := parJoinInputs(t, 40, 60)
	for _, c := range []struct {
		name         string
		build, probe []*batch.Batch
	}{{"simple", []*batch.Batch{build}, []*batch.Batch{probe}}, {"colliding", collBuild, collProbe}} {
		op := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).New(0, 1).(*HashJoin)
		consumeAll(t, op, 0, c.build...)
		if op.StateBytes() == 0 {
			t.Fatalf("%s: state bytes should grow with build side", c.name)
		}
		snap, err := op.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		op2 := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).New(0, 1).(*HashJoin)
		if err := op2.Restore(snap); err != nil {
			t.Fatal(err)
		}
		out1 := consumeAll(t, op, 1, c.probe...)
		out2 := consumeAll(t, op2, 1, c.probe...)
		if encodeOuts(out1) != encodeOuts(out2) {
			t.Fatalf("%s: restored join behaves differently", c.name)
		}
		if op.StateBytes() != op2.StateBytes() {
			t.Errorf("%s: state bytes %d vs %d", c.name, op.StateBytes(), op2.StateBytes())
		}
	}
}

func TestHashAggGrouped(t *testing.T) {
	s := batch.NewSchema(batch.F("g", batch.String), batch.F("x", batch.Float64), batch.F("n", batch.Int64))
	in := batch.MustNew(s, []*batch.Column{
		batch.NewStringColumn([]string{"a", "b", "a", "b", "a"}),
		batch.NewFloatColumn([]float64{1, 2, 3, 4, 5}),
		batch.NewIntColumn([]int64{10, 20, 30, 40, 50}),
	})
	op := NewHashAggSpec([]string{"g"},
		Sum("sx", expr.C("x")),
		CountStar("cnt"),
		Min("mn", expr.C("n")),
		Max("mx", expr.C("x")),
	).New(0, 1)
	consumeAll(t, op, 0, in.Slice(0, 3), in.Slice(3, 5))
	out := finalize(t, op)
	if len(out) != 1 || out[0].NumRows() != 2 {
		t.Fatalf("agg output: %v", out)
	}
	g := out[0]
	// Deterministic order: "a" < "b".
	if g.Col("g").Strings[0] != "a" {
		t.Fatalf("group order: %v", g.Col("g").Strings)
	}
	if g.Col("sx").Floats[0] != 9 || g.Col("sx").Floats[1] != 6 {
		t.Fatalf("sums: %v", g.Col("sx").Floats)
	}
	if g.Col("cnt").Ints[0] != 3 || g.Col("cnt").Ints[1] != 2 {
		t.Fatalf("counts: %v", g.Col("cnt").Ints)
	}
	if g.Col("mn").Ints[0] != 10 || g.Col("mx").Floats[1] != 4 {
		t.Fatalf("min/max wrong")
	}
}

func TestHashAggGlobalEmitsOneRow(t *testing.T) {
	op := NewHashAggSpec(nil, CountStar("c"), Sum("s", expr.C("v"))).New(0, 1)
	out := finalize(t, op)
	if len(out) != 1 || out[0].NumRows() != 1 || out[0].Col("c").Ints[0] != 0 {
		t.Fatalf("global agg on empty input: %v", out)
	}
}

func TestHashAggSnapshotRestore(t *testing.T) {
	s := batch.NewSchema(batch.F("g", batch.Int64), batch.F("x", batch.Float64))
	in := batch.MustNew(s, []*batch.Column{
		batch.NewIntColumn([]int64{1, 2, 1}),
		batch.NewFloatColumn([]float64{5, 7, 9}),
	})
	mk := func() *HashAgg {
		return NewHashAggSpec([]string{"g"}, Sum("s", expr.C("x")), CountStar("c")).New(0, 1).(*HashAgg)
	}
	op := mk()
	consumeAll(t, op, 0, in)
	snap, err := op.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	op2 := mk()
	if err := op2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Feed more data to both; results must agree.
	consumeAll(t, op, 0, in)
	consumeAll(t, op2, 0, in)
	o1, o2 := finalize(t, op), finalize(t, op2)
	if !reflect.DeepEqual(batch.Encode(o1[0]), batch.Encode(o2[0])) {
		t.Fatalf("restored agg differs:\n%v\nvs\n%v", o1[0], o2[0])
	}

	// The same over many groups with hash-colliding keys, restored after
	// the first of two batches.
	build, _ := parJoinInputs(t, 120, 0)
	spec := NewHashAggSpec([]string{"k"}, Sum("s", expr.C("k")), CountStar("c"))
	whole, restored := spec.New(0, 1), spec.New(0, 1)
	consumeAll(t, whole, 0, build[0])
	if snap, err = whole.(Snapshotter).Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := restored.(Snapshotter).Restore(snap); err != nil {
		t.Fatal(err)
	}
	consumeAll(t, whole, 0, build[1])
	consumeAll(t, restored, 0, build[1])
	if got, want := encodeOuts(finalize(t, restored)), encodeOuts(finalize(t, whole)); got != want {
		t.Error("restored agg over colliding keys differs")
	}
}

func TestSortAndTopK(t *testing.T) {
	in := b2(t, []int64{3, 1, 2, 1}, []float64{30, 10, 20, 11})
	op := NewSortSpec(Asc("id"), Desc("v")).New(0, 1)
	consumeAll(t, op, 0, in)
	out := finalize(t, op)
	ids := out[0].Col("id").Ints
	vs := out[0].Col("v").Floats
	if !reflect.DeepEqual(ids, []int64{1, 1, 2, 3}) {
		t.Fatalf("sort ids: %v", ids)
	}
	if vs[0] != 11 || vs[1] != 10 {
		t.Fatalf("desc tiebreak: %v", vs)
	}
	top := NewTopKSpec(2, Desc("v")).New(0, 1)
	consumeAll(t, top, 0, in)
	out = finalize(t, top)
	if out[0].NumRows() != 2 || out[0].Col("v").Floats[0] != 30 {
		t.Fatalf("topk: %v", out[0])
	}
}

func TestSortEmpty(t *testing.T) {
	op := NewSortSpec(Asc("id")).New(0, 1)
	if out := finalize(t, op); out != nil {
		t.Fatalf("empty sort emitted %v", out)
	}
}

// Property: operator determinism — replaying the same consume sequence
// yields byte-identical output. This is the invariant write-ahead lineage
// recovery relies on (§III).
func TestQuickOperatorDeterminism(t *testing.T) {
	run := func(keys []int64, vals []float64, split uint8) []byte {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return nil
		}
		s := batch.NewSchema(batch.F("id", batch.Int64), batch.F("v", batch.Float64))
		in := batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(keys[:n]), batch.NewFloatColumn(vals[:n]),
		})
		cut := int(split) % n
		op := NewHashAggSpec([]string{"id"}, Sum("s", expr.C("v")), CountStar("c")).New(0, 1)
		if cut > 0 {
			op.Consume(0, in.Slice(0, cut))
			op.Consume(0, in.Slice(cut, n))
		} else {
			op.Consume(0, in)
		}
		out, err := op.Finalize()
		if err != nil || len(out) == 0 {
			return nil
		}
		return batch.Encode(out[0])
	}
	f := func(keys []int64, vals []float64, s1, s2 uint8) bool {
		a := run(keys, vals, s1)
		b := run(keys, vals, s2)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: inner join row count equals the sum over probe rows of build
// matches (brute-force cross-check).
func TestQuickJoinMatchesBruteForce(t *testing.T) {
	f := func(buildKeys, probeKeys []int64) bool {
		if len(buildKeys) > 200 || len(probeKeys) > 200 {
			return true
		}
		bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("b", batch.Int64))
		bvals := make([]int64, len(buildKeys))
		for i := range bvals {
			bvals[i] = int64(i)
		}
		build := batch.MustNew(bs, []*batch.Column{batch.NewIntColumn(buildKeys), batch.NewIntColumn(bvals)})
		ps := batch.NewSchema(batch.F("k", batch.Int64), batch.F("p", batch.Int64))
		pvals := make([]int64, len(probeKeys))
		probe := batch.MustNew(ps, []*batch.Column{batch.NewIntColumn(probeKeys), batch.NewIntColumn(pvals)})
		op := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).New(0, 1)
		op.Consume(0, build)
		out, err := op.Consume(1, probe)
		if err != nil {
			return false
		}
		got := 0
		for _, o := range out {
			got += o.NumRows()
		}
		want := 0
		for _, pk := range probeKeys {
			for _, bk := range buildKeys {
				if pk == bk {
					want++
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
