package ops

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// A stage runs in parallel across its channels: a hash edge routes each row
// to channel HashKey(key) mod n (batch.Scatter), and every channel runs its
// own operator serially over its share. The tests here check that n such
// channels together emit what one operator fed everything emits.

// channelCounts are the channel counts the tests split a stage into.
var channelCounts = []int{2, 3, 5, 8}

// rowSet renders every row of the batches as a string and sorts them: the
// canonical multiset used to compare outputs that may differ in row order
// but never in content.
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

// scatterTo routes each batch to n channels by the named key columns, as a
// hash edge does: channel k receives, batch by batch, the rows whose key
// hash is k mod n.
func scatterTo(t *testing.T, bs []*batch.Batch, keys []string, n int) [][]*batch.Batch {
	t.Helper()
	out := make([][]*batch.Batch, n)
	for _, b := range bs {
		ix, err := keyIndexes(b.Schema, keys)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := batch.Scatter([]*batch.Batch{b}, ix, n)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range parts {
			if p != nil {
				out[k] = append(out[k], p)
			}
		}
	}
	return out
}

// joinOver runs spec over n channels, each fed its hash share of build and
// probe, and returns every channel's output.
func joinOver(t *testing.T, spec Spec, build, probe []*batch.Batch, n int) []*batch.Batch {
	t.Helper()
	builds, probes := scatterTo(t, build, []string{"k"}, n), scatterTo(t, probe, []string{"k"}, n)
	var out []*batch.Batch
	for c := 0; c < n; c++ {
		op := spec.New(c, n)
		out = append(out, consumeAll(t, op, 0, builds[c]...)...)
		out = append(out, consumeAll(t, op, 1, probes[c]...)...)
		out = append(out, finalize(t, op)...)
	}
	return out
}

// aggOver runs spec over n channels, each fed its hash share of in, and
// merges the channels' finalized outputs into key order.
func aggOver(t *testing.T, spec Spec, groupBy []string, in []*batch.Batch, n int) *batch.Batch {
	t.Helper()
	shares := scatterTo(t, in, groupBy, n)
	outs := make([]*batch.Batch, n)
	for c := 0; c < n; c++ {
		op := spec.New(c, n)
		consumeAll(t, op, 0, shares[c]...)
		if o := finalize(t, op); len(o) == 1 {
			outs[c] = o[0]
		}
	}
	merged, err := mergeGroupOutputs(outs, groupBy)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// parJoinInputs builds a build side and probe side with heavy key
// duplication plus deliberate same-channel collisions: for every build key,
// another distinct key hashing to the same channel (at every tested channel
// count) is also present, so channels hold multiple distinct keys.
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

// collidingKey finds a key distinct from k that a hash edge routes to k's
// channel at every channel count the tests use — a forced hash collision
// at the channel level.
func collidingKey(t *testing.T, k int64) int64 {
	t.Helper()
	var kb, cb []byte
	s := batch.NewSchema(batch.F("k", batch.Int64))
	for c := k + 1000; c < k+100000; c++ {
		b := batch.MustNew(s, []*batch.Column{batch.NewIntColumn([]int64{k, c})})
		kh := batch.HashKey(batch.AppendKey(kb[:0], b, []int{0}, 0))
		ch := batch.HashKey(batch.AppendKey(cb[:0], b, []int{0}, 1))
		same := true
		for _, n := range channelCounts {
			if kh%uint64(n) != ch%uint64(n) {
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

// TestParallelJoinMatchesSerial checks all four join types: the join run
// across n hash channels must produce a row set identical to the one
// operator's at every channel count, including duplicate keys and distinct
// keys that share a channel.
func TestParallelJoinMatchesSerial(t *testing.T) {
	build, probe := parJoinInputs(t, 60, 90)
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		spec := NewHashJoinSpec(typ, []string{"k"}, []string{"k"})
		wantRows := rowSet(t, joinOver(t, spec, build, probe, 1))
		for _, n := range channelCounts {
			if gotRows := rowSet(t, joinOver(t, spec, build, probe, n)); !reflect.DeepEqual(gotRows, wantRows) {
				t.Errorf("%s over %d channels: %d rows vs serial %d rows", typ, n, len(gotRows), len(wantRows))
			}
		}
	}
}

// TestParallelAggMatchesSerialBytes: the aggregate run across n hash
// channels, its channels' outputs merged into key order, is byte-identical
// to the one operator's: a group lives in exactly one channel.
func TestParallelAggMatchesSerialBytes(t *testing.T) {
	build, _ := parJoinInputs(t, 200, 0)
	groupBy := []string{"k"}
	spec := NewHashAggSpec(groupBy,
		Sum("s", expr.C("k")), CountStar("c"), Min("lo", expr.C("name")), Max("hi", expr.C("name")),
	)
	serial := spec.New(0, 1)
	consumeAll(t, serial, 0, build...)
	want := finalize(t, serial)
	if len(want) != 1 {
		t.Fatalf("serial finalize: %d batches", len(want))
	}
	for _, n := range channelCounts {
		got := aggOver(t, spec, groupBy, build, n)
		if string(batch.Encode(got)) != string(batch.Encode(want[0])) {
			t.Errorf("%d channels: output not byte-identical to serial:\nwant %v\ngot  %v", n, want[0], got)
		}
	}
}

// TestQuickParallelMatchesSerial is the property-style gate: random keys
// and values, random channel counts — the join over channels must match the
// serial row multiset, the aggregate byte for byte.
func TestQuickParallelMatchesSerial(t *testing.T) {
	f := func(keys []int64, vals []float64, nRaw uint8) bool {
		rows := min(len(keys), len(vals))
		if rows == 0 {
			return true
		}
		n := int(nRaw)%7 + 2
		s := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
		in := []*batch.Batch{batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(keys[:rows]), batch.NewFloatColumn(vals[:rows]),
		})}

		aggSpec := NewHashAggSpec([]string{"k"}, Sum("s", expr.C("v")), CountStar("c"))
		serialAgg := aggSpec.New(0, 1)
		if _, err := serialAgg.Consume(0, in[0]); err != nil {
			return false
		}
		wantAgg, err := serialAgg.Finalize()
		if err != nil || len(wantAgg) != 1 {
			return false
		}
		if got := aggOver(t, aggSpec, []string{"k"}, in, n); string(batch.Encode(got)) != string(batch.Encode(wantAgg[0])) {
			return false
		}

		bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("bv", batch.Float64))
		buildIn := []*batch.Batch{batch.MustNew(bs, []*batch.Column{
			batch.NewIntColumn(keys[:rows]), batch.NewFloatColumn(vals[:rows]),
		})}
		joinSpec := NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"})
		want := rowSet(t, joinOver(t, joinSpec, buildIn, in, 1))
		return reflect.DeepEqual(want, rowSet(t, joinOver(t, joinSpec, buildIn, in, n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
