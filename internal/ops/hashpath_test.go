package ops

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// --- map-based reference implementations ---------------------------------
//
// These replicate the pre-hash-path operators (map[string] group/join
// tables, per-row key encoding) as test oracles: the vectorized operators
// must produce byte-identical aggregation output and identical join row
// multisets.

// refAgg is the old map-based grouped sum/count for reference.
func refAggSumCount(t *testing.T, batches []*batch.Batch, groupBy []string, sumCol string) *batch.Batch {
	t.Helper()
	type g struct {
		keyRow *batch.Batch
		sum    float64
		count  int64
	}
	groups := map[string]*g{}
	var order []string
	var keySchema *batch.Schema
	for _, b := range batches {
		b = b.Materialize()
		keyIdx, err := keyIndexes(b.Schema, groupBy)
		if err != nil {
			t.Fatal(err)
		}
		if keySchema == nil {
			fields := make([]batch.Field, len(keyIdx))
			for i, ci := range keyIdx {
				fields[i] = b.Schema.Fields[ci]
			}
			keySchema = batch.NewSchema(fields...)
		}
		vc := b.Col(sumCol)
		var key []byte
		for r := 0; r < b.NumRows(); r++ {
			key = batch.AppendKey(key[:0], b, keyIdx, r)
			st, ok := groups[string(key)]
			if !ok {
				bl := batch.NewBuilder(keySchema, 1)
				for i, ci := range keyIdx {
					bl.Col(i).AppendFrom(b.Cols[ci], r)
				}
				st = &g{keyRow: bl.Build()}
				groups[string(key)] = st
				order = append(order, string(key))
			}
			st.sum += vc.Floats[r]
			st.count++
		}
	}
	keys := append([]string(nil), order...)
	sort.Strings(keys)
	fields := append([]batch.Field(nil), keySchema.Fields...)
	fields = append(fields, batch.F("s", batch.Float64), batch.F("c", batch.Int64))
	bl := batch.NewBuilder(batch.NewSchema(fields...), len(keys))
	nk := keySchema.Len()
	for _, k := range keys {
		st := groups[k]
		for c := 0; c < nk; c++ {
			bl.Col(c).AppendFrom(st.keyRow.Cols[c], 0)
		}
		bl.Col(nk).Floats = append(bl.Col(nk).Floats, st.sum)
		bl.Col(nk + 1).Ints = append(bl.Col(nk+1).Ints, st.count)
	}
	return bl.Build()
}

// hashPathAggInputs builds multi-type group keys including the encoding
// edge cases: multi-string keys whose concatenations collide without the
// length prefix, and 0.0 vs -0.0 float keys.
func hashPathAggInputs(t *testing.T) []*batch.Batch {
	t.Helper()
	s := batch.NewSchema(
		batch.F("a", batch.String), batch.F("b", batch.String),
		batch.F("f", batch.Float64), batch.F("v", batch.Float64),
	)
	var as, bs []string
	var fs, vs []float64
	negZero := math.Copysign(0, -1)
	for i := 0; i < 500; i++ {
		switch i % 4 {
		case 0:
			as, bs = append(as, "ab"), append(bs, "c")
		case 1:
			as, bs = append(as, "a"), append(bs, "bc")
		case 2:
			as, bs = append(as, ""), append(bs, "abc")
		default:
			as, bs = append(as, fmt.Sprintf("k%d", i%7)), append(bs, "x")
		}
		if (i/4)%2 == 0 {
			fs = append(fs, 0.0)
		} else {
			fs = append(fs, negZero)
		}
		vs = append(vs, float64(i))
	}
	b := batch.MustNew(s, []*batch.Column{
		batch.NewStringColumn(as), batch.NewStringColumn(bs),
		batch.NewFloatColumn(fs), batch.NewFloatColumn(vs),
	})
	return []*batch.Batch{b.Slice(0, 200), b.Slice(200, 500)}
}

// TestHashAggMatchesMapReference: the arena/open-addressing aggregation
// must be byte-identical to the map-based reference, including the
// key-encoding edge cases (length-prefixed multi-string keys, signed-zero
// floats as distinct groups).
func TestHashAggMatchesMapReference(t *testing.T) {
	in := hashPathAggInputs(t)
	groupBy := []string{"a", "b", "f"}
	want := refAggSumCount(t, in, groupBy, "v")

	op := NewHashAggSpec(groupBy, Sum("s", expr.C("v")), CountStar("c")).New(0, 1)
	consumeAll(t, op, 0, in...)
	out := finalize(t, op)
	if len(out) != 1 {
		t.Fatalf("finalize returned %d batches", len(out))
	}
	if string(batch.Encode(out[0])) != string(batch.Encode(want)) {
		t.Errorf("output differs from map reference\nwant %v\ngot  %v", want, out[0])
	}
	// The multi-string edge cases must stay distinct groups: 3 string
	// splits of "abc" x 2 zero signs + 7 regular keys x 2 signs = 20.
	if got := out[0].NumRows(); got != 20 {
		t.Errorf("distinct groups = %d, want 20 (length prefix or -0.0 semantics broken)", got)
	}
}

// refJoin is the old map-based inner/left/semi/anti join for reference.
func refJoinRows(t *testing.T, typ JoinType, build, probe []*batch.Batch, buildKeys, probeKeys []string) []string {
	t.Helper()
	index := map[string][][2]int{}
	for bi, bb := range build {
		bb = bb.Materialize()
		build[bi] = bb
		ix, err := keyIndexes(bb.Schema, buildKeys)
		if err != nil {
			t.Fatal(err)
		}
		var key []byte
		for r := 0; r < bb.NumRows(); r++ {
			key = batch.AppendKey(key[:0], bb, ix, r)
			index[string(key)] = append(index[string(key)], [2]int{bi, r})
		}
	}
	var buildSchema *batch.Schema
	if len(build) > 0 {
		buildSchema = build[0].Schema
	}
	var rows []string
	for _, pb := range probe {
		pb = pb.Materialize()
		pix, err := keyIndexes(pb.Schema, probeKeys)
		if err != nil {
			t.Fatal(err)
		}
		var bix []int
		if buildSchema != nil {
			bix, _ = keyIndexes(buildSchema, buildKeys)
		}
		isKey := map[int]bool{}
		for _, k := range bix {
			isKey[k] = true
		}
		var key []byte
		for r := 0; r < pb.NumRows(); r++ {
			key = batch.AppendKey(key[:0], pb, pix, r)
			refs := index[string(key)]
			switch typ {
			case SemiJoin, AntiJoin:
				if (len(refs) > 0) == (typ == SemiJoin) {
					row := ""
					for _, c := range pb.Cols {
						row += fmt.Sprintf("|%v", c.Value(r))
					}
					rows = append(rows, row)
				}
			case InnerJoin, LeftOuterJoin:
				emit := func(ref *[2]int) {
					row := ""
					for _, c := range pb.Cols {
						row += fmt.Sprintf("|%v", c.Value(r))
					}
					if buildSchema != nil {
						for ci, c := range build[0].Schema.Fields {
							if isKey[ci] {
								continue
							}
							_ = c
							if ref != nil {
								row += fmt.Sprintf("|%v", build[ref[0]].Cols[ci].Value(ref[1]))
							} else {
								row += fmt.Sprintf("|%v", zeroValueOf(build[0].Cols[ci].Type))
							}
						}
					}
					if typ == LeftOuterJoin {
						row += fmt.Sprintf("|%v", ref != nil)
					}
					rows = append(rows, row)
				}
				if len(refs) == 0 {
					if typ == LeftOuterJoin {
						emit(nil)
					}
					continue
				}
				for i := range refs {
					emit(&refs[i])
				}
			}
		}
	}
	sort.Strings(rows)
	return rows
}

func zeroValueOf(t batch.Type) any {
	switch t {
	case batch.Int64, batch.Date:
		return int64(0)
	case batch.Float64:
		return float64(0)
	case batch.String:
		return ""
	case batch.Bool:
		return false
	}
	return nil
}

// TestHashJoinMatchesMapReference: all four join types over duplicate and
// hash-colliding keys, against the map-based reference row multiset.
func TestHashJoinMatchesMapReference(t *testing.T) {
	build, probe := parJoinInputs(t, 80, 120)
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		want := refJoinRows(t, typ,
			append([]*batch.Batch(nil), build...), probe, []string{"k"}, []string{"k"})
		op := NewHashJoinSpec(typ, []string{"k"}, []string{"k"}).New(0, 1)
		var out []*batch.Batch
		out = append(out, consumeAll(t, op, 0, build...)...)
		out = append(out, consumeAll(t, op, 1, probe...)...)
		out = append(out, finalize(t, op)...)
		if got := rowSet(t, out); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d rows vs reference %d rows", typ, len(got), len(want))
		}
	}
}

// TestRouterEquivalence: the hash-edge router, batch.Scatter, must send
// every row to the channel the per-row encode-then-fnv contract names —
// fnv-1a over the key encoding, length-prefixed strings included, mod the
// channel count — and the vectorized hash it computes must be that hash.
func TestRouterEquivalence(t *testing.T) {
	f := func(ints []int64, strs []string, nRaw uint8) bool {
		rows := min(len(ints), len(strs))
		if rows == 0 {
			return true
		}
		n := int(nRaw)%7 + 1
		s := batch.NewSchema(batch.F("i", batch.Int64), batch.F("s", batch.String))
		b := batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(ints[:rows]), batch.NewStringColumn(strs[:rows]),
		})
		keyIdx := []int{0, 1}
		hashes := batch.HashKeys(nil, b, keyIdx)
		var key []byte
		for r := 0; r < rows; r++ {
			if key = batch.AppendKey(key[:0], b, keyIdx, r); hashes[r] != batch.HashKey(key) {
				return false
			}
		}
		parts, err := batch.Scatter([]*batch.Batch{b}, keyIdx, n)
		if err != nil {
			return false
		}
		routed := 0
		for k, part := range parts {
			for r := 0; part != nil && r < part.NumRows(); r++ {
				if key = batch.AppendKey(key[:0], part, keyIdx, r); batch.HashKey(key)%uint64(n) != uint64(k) {
					return false
				}
				routed++
			}
		}
		return routed == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFilterSelectionEquivalence: a dense filter emits a selection-vector
// view; the full pipeline (filter -> agg, filter -> join probe, filter ->
// encode) must produce byte-identical results to a materialized filter.
func TestFilterSelectionEquivalence(t *testing.T) {
	const n = 2000
	s := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	ks := make([]int64, n)
	vs := make([]float64, n)
	for i := range ks {
		ks[i] = int64(i % 100)
		vs[i] = float64(i)
	}
	in := batch.MustNew(s, []*batch.Column{batch.NewIntColumn(ks), batch.NewFloatColumn(vs)})

	// Keeps 90% of rows: the filter must emit a view, not a copy.
	pred := expr.Ge(expr.C("k"), expr.Int64(10))
	fop := NewFilterSpec(pred).New(0, 1)
	out := consumeAll(t, fop, 0, in)
	if len(out) != 1 {
		t.Fatalf("filter output: %d batches", len(out))
	}
	if out[0].Sel == nil {
		t.Fatal("dense filter should emit a selection-vector view")
	}
	if out[0].NumRows() != n*90/100 {
		t.Fatalf("filter kept %d rows", out[0].NumRows())
	}

	// Materialized twin.
	mat := out[0].Materialize()

	// Aggregation downstream of the view vs the copy: byte-identical.
	aggSpec := NewHashAggSpec([]string{"k"}, Sum("s", expr.C("v")), CountStar("c"))
	aggView := aggSpec.New(0, 1)
	aggMat := aggSpec.New(0, 1)
	consumeAll(t, aggView, 0, out[0])
	consumeAll(t, aggMat, 0, mat)
	gv, gm := finalize(t, aggView), finalize(t, aggMat)
	if string(batch.Encode(gv[0])) != string(batch.Encode(gm[0])) {
		t.Error("agg over selection view differs from materialized")
	}

	// Join probe fed the view vs the copy: identical row multiset.
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String))
	buildB := batch.MustNew(bs, []*batch.Column{
		batch.NewIntColumn([]int64{10, 11, 12}),
		batch.NewStringColumn([]string{"a", "b", "c"}),
	})
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		spec := NewHashJoinSpec(typ, []string{"k"}, []string{"k"})
		jv, jm := spec.New(0, 1), spec.New(0, 1)
		consumeAll(t, jv, 0, buildB)
		consumeAll(t, jm, 0, buildB)
		ov := rowSet(t, consumeAll(t, jv, 1, out[0]))
		om := rowSet(t, consumeAll(t, jm, 1, mat))
		if !reflect.DeepEqual(ov, om) {
			t.Errorf("%s: probe over selection view differs: %d vs %d rows", typ, len(ov), len(om))
		}
	}

	// Wire boundary: encoding the view materializes it.
	if string(batch.Encode(out[0])) != string(batch.Encode(mat)) {
		t.Error("encode of selection view differs from materialized")
	}

	// Sparse filter (keeps 10%): must materialize, not hand out a view.
	sparse := NewFilterSpec(expr.Lt(expr.C("k"), expr.Int64(10))).New(0, 1)
	sout := consumeAll(t, sparse, 0, in)
	if len(sout) != 1 || sout[0].Sel != nil {
		t.Fatalf("sparse filter should materialize")
	}

	// Chained filters compose selections.
	chain2 := NewFilterSpec(expr.Lt(expr.C("k"), expr.Int64(95))).New(0, 1)
	c2 := consumeAll(t, chain2, 0, out[0])
	if got := c2[0].NumRows(); got != n*85/100 {
		t.Fatalf("chained filter kept %d rows", got)
	}
	want := 0
	for _, k := range ks {
		if k >= 10 && k < 95 {
			want++
		}
	}
	if c2[0].NumRows() != want {
		t.Fatalf("chained filter kept %d, want %d", c2[0].NumRows(), want)
	}
}

// --- allocation-regression guards ---------------------------------------
//
// The hash path's contract: once scratch is warm, the join-probe and
// agg-update inner loops allocate nothing per row. Output materialization
// allocates per batch (a handful of column buffers), so the guard is
// "zero allocations per row" measured over large batches.

func TestAggUpdateZeroAllocs(t *testing.T) {
	const n = 4096
	s := batch.NewSchema(batch.F("g", batch.Int64), batch.F("v", batch.Float64))
	gs := make([]int64, n)
	vs := make([]float64, n)
	for i := range gs {
		gs[i] = int64(i % 64)
		vs[i] = float64(i)
	}
	in := batch.MustNew(s, []*batch.Column{batch.NewIntColumn(gs), batch.NewFloatColumn(vs)})
	op := NewHashAggSpec([]string{"g"}, Sum("s", expr.C("v")), CountStar("c")).New(0, 1)
	if _, err := op.Consume(0, in); err != nil { // warm: groups + scratch exist
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := op.Consume(0, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("agg update path: %v allocs per %d-row batch, want 0", allocs, n)
	}
}

func TestJoinProbeZeroAllocsPerRow(t *testing.T) {
	const nBuild, nProbe = 1024, 4096
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String))
	bk := make([]int64, nBuild)
	bn := make([]string, nBuild)
	for i := range bk {
		bk[i] = int64(i)
		bn[i] = fmt.Sprintf("n%d", i)
	}
	ps := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	pk := make([]int64, nProbe)
	pv := make([]float64, nProbe)
	for i := range pk {
		pk[i] = int64(i % (nBuild * 2))
		pv[i] = float64(i)
	}
	build := batch.MustNew(bs, []*batch.Column{batch.NewIntColumn(bk), batch.NewStringColumn(bn)})
	probe := batch.MustNew(ps, []*batch.Column{batch.NewIntColumn(pk), batch.NewFloatColumn(pv)})

	op := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}).New(0, 1)
	if _, err := op.Consume(0, build); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Consume(1, probe); err != nil { // warm: index + match scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := op.Consume(1, probe); err != nil {
			t.Fatal(err)
		}
	})
	// Output materialization allocates a fixed handful of buffers per
	// batch (output columns + wrapper); the probe loop itself must add
	// nothing per row.
	if perRow := allocs / nProbe; perRow >= 0.01 {
		t.Errorf("join probe: %v allocs per %d-row batch (%.4f/row), want ~0", allocs, nProbe, perRow)
	}
	if allocs > 32 {
		t.Errorf("join probe: %v allocs per batch, want <= 32 (per-batch output only)", allocs)
	}

	// Semi join probes with no output materialization at all: once the
	// kept-row scratch is warm it must be allocation-free except the
	// gathered output columns.
	semi := NewHashJoinSpec(SemiJoin, []string{"k"}, []string{"k"}).New(0, 1)
	if _, err := semi.Consume(0, build); err != nil {
		t.Fatal(err)
	}
	if _, err := semi.Consume(1, probe); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := semi.Consume(1, probe); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("semi probe: %v allocs per batch, want <= 16", allocs)
	}
}

// TestGlobalAggEmptyInputSemantics pins the map-era nil-vs-empty
// distinction: a global aggregate whose Consume was never called emits
// one default row, while one that consumed only zero-row batches emits
// nothing.
func TestGlobalAggEmptyInputSemantics(t *testing.T) {
	spec := NewHashAggSpec(nil, CountStar("c"))
	never := spec.New(0, 1)
	out := finalize(t, never)
	if len(out) != 1 || out[0].NumRows() != 1 || out[0].Col("c").Ints[0] != 0 {
		t.Fatalf("never-consumed global agg: %v, want one default row", out)
	}
	emptyOnly := spec.New(0, 1)
	s := batch.NewSchema(batch.F("v", batch.Float64))
	consumeAll(t, emptyOnly, 0, batch.Empty(s))
	if out := finalize(t, emptyOnly); len(out) != 0 {
		t.Fatalf("empty-consumed global agg emitted %v, want nothing", out)
	}
}

// TestHashAggSnapshotRoundTripsNewLayout: snapshot/restore over the
// arena-backed layout, then keep consuming — equality with an operator
// that never snapshotted.
func TestHashAggSnapshotRoundTripsNewLayout(t *testing.T) {
	in := hashPathAggInputs(t)
	spec := NewHashAggSpec([]string{"a", "b", "f"}, Sum("s", expr.C("v")), CountStar("c"))
	op1 := spec.New(0, 1)
	op2 := spec.New(0, 1)
	consumeAll(t, op1, 0, in[0])
	snap, err := op1.(Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := op2.(Snapshotter).Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := op2.(Snapshotter).StateBytes(), op1.(Snapshotter).StateBytes(); got != want {
		t.Errorf("restored StateBytes %d != %d", got, want)
	}
	consumeAll(t, op1, 0, in[1])
	consumeAll(t, op2, 0, in[1])
	o1, o2 := finalize(t, op1), finalize(t, op2)
	if string(batch.Encode(o1[0])) != string(batch.Encode(o2[0])) {
		t.Error("restored agg diverged from original")
	}
}
