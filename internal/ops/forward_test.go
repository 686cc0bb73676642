package ops

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// forwardAggs is one partial aggregate of every kind over every input type
// but float: int and date sums, min and max, string min and max, count and
// count(*). All integer, so merges are exact.
func forwardAggs() []AggExpr {
	return []AggExpr{
		Sum("isum", expr.C("iv")), Sum("dsum", expr.C("dv")),
		{"cnt", AggCount, expr.C("sv")}, CountStar("n"),
		Min("imin", expr.C("iv")), Max("imax", expr.C("iv")),
		Min("dmin", expr.C("dv")), Max("dmax", expr.C("dv")),
		Min("smin", expr.C("sv")), Max("smax", expr.C("sv")),
	}
}

// mergeAggs is the final half of forwardAggs, as the planner lowers it.
func mergeAggs() []AggExpr {
	var out []AggExpr
	for _, a := range forwardAggs() {
		switch a.Kind {
		case AggSum, AggCount, AggCountStar:
			out = append(out, Sum(a.Name, expr.C(a.Name)))
		case AggMin:
			out = append(out, Min(a.Name, expr.C(a.Name)))
		case AggMax:
			out = append(out, Max(a.Name, expr.C(a.Name)))
		}
	}
	return out
}

// forwardPieces are the pieces one partial channel consumes, grouped by
// (g, name): some reduce (few keys, many rows) and some do not (mostly
// distinct keys, a selection view among them, a single row), and their
// groups overlap, so a key is forwarded from one piece and aggregated
// from another.
func forwardPieces() []*batch.Batch {
	s := batch.NewSchema(batch.F("g", batch.Int64), batch.F("name", batch.String),
		batch.F("iv", batch.Int64), batch.F("dv", batch.Date), batch.F("sv", batch.String))
	rng := rand.New(rand.NewSource(5))
	piece := func(rows, keys int) *batch.Batch {
		gs, ivs, dvs := make([]int64, rows), make([]int64, rows), make([]int64, rows)
		ns, svs := make([]string, rows), make([]string, rows)
		for i := range gs {
			k := rng.Intn(keys)
			if keys >= rows {
				k = i * 7 % keys // distinct
			}
			gs[i], ns[i] = int64(k/3), fmt.Sprintf("n%d", k%3)
			ivs[i], dvs[i], svs[i] = rng.Int63n(2000)-1000, 9000+rng.Int63n(900), fmt.Sprintf("s%03d", rng.Intn(400))
		}
		return batch.MustNew(s, []*batch.Column{batch.NewIntColumn(gs), batch.NewStringColumn(ns),
			batch.NewIntColumn(ivs), batch.NewDateColumn(dvs), batch.NewStringColumn(svs)})
	}
	sel := make([]int32, 0, 300)
	for i := int32(0); i < 600; i += 2 {
		sel = append(sel, i)
	}
	return []*batch.Batch{
		piece(400, 20),               // reduces
		piece(400, 400),              // distinct: forwarded
		piece(600, 600).WithSel(sel), // a distinct view: forwarded
		piece(300, 200),              // two thirds distinct: forwarded
		piece(500, 60),               // reduces
		piece(1, 1),                  // one row is one key: forwarded
	}
}

// partialRun is what a partial aggregate emitted over the pieces: each
// Consume's output, then Finalize's, encoded.
type partialRun struct {
	consumed []string
	final    string
	outs     []*batch.Batch // every batch emitted, in order
}

func runPartial(t *testing.T, op Operator, pieces []*batch.Batch) partialRun {
	t.Helper()
	var run partialRun
	for _, p := range pieces {
		o := consumeAll(t, op, 0, p)
		run.consumed = append(run.consumed, encodeOuts(o))
		run.outs = append(run.outs, o...)
	}
	o := finalize(t, op)
	run.final = encodeOuts(o)
	run.outs = append(run.outs, o...)
	return run
}

// TestForwardingPartialIsAPureFunctionOfItsInput: a partial aggregate
// forwards exactly the pieces whose keys are mostly distinct, and emits the
// same bytes, call by call, with and without a budget that forces its
// table to spill, and across a Snapshot/Restore between two pieces.
func TestForwardingPartialIsAPureFunctionOfItsInput(t *testing.T) {
	pieces := forwardPieces()
	spec := NewHashAggPartialSpec([]string{"g", "name"}, forwardAggs()...)
	want := runPartial(t, spec.New(0, 1), pieces)
	for i, forwarded := range []bool{false, true, true, true, false, true} {
		if got := want.consumed[i] != ""; got != forwarded {
			t.Fatalf("piece %d: forwarded %v, want %v", i, got, forwarded)
		}
	}
	for _, budget := range []int64{0, 2_000} {
		op := spec.New(0, 1)
		var env *spillEnv
		if budget > 0 {
			env = newSpillEnv(budget, 4)
			op.(Spillable).SetSpill(env.ctx.NewOp("spill/fwd"))
		}
		got := runPartial(t, op, pieces)
		if env != nil && env.spilledRuns() == 0 {
			t.Errorf("budget %d: nothing spilled", budget)
		}
		for i := range pieces {
			if got.consumed[i] != want.consumed[i] {
				t.Errorf("budget %d: piece %d emitted other bytes", budget, i)
			}
		}
		if got.final != want.final {
			t.Errorf("budget %d: Finalize emitted other bytes", budget)
		}
	}

	// Snapshot after the first three pieces, restore into a fresh
	// operator, consume the rest: the same bytes as never stopping.
	half := spec.New(0, 1)
	consumeAll(t, half, 0, pieces[:3]...)
	snap, err := half.(Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := spec.New(0, 1)
	if err := restored.(Snapshotter).Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := runPartial(t, restored, pieces[3:])
	for i := range got.consumed {
		if got.consumed[i] != want.consumed[3+i] {
			t.Errorf("restored, piece %d emitted other bytes", 3+i)
		}
	}
	if got.final != want.final {
		t.Error("restored, Finalize emitted other bytes")
	}
}

// TestForwardedStatesMergeLikeAggregatedOnes: the final aggregate over a
// forwarding partial's output equals, byte for byte, the final aggregate
// over a partial that aggregates every piece, and the single-stage
// aggregate; every forwarded batch has the schema of a finalized one.
func TestForwardedStatesMergeLikeAggregatedOnes(t *testing.T) {
	pieces := forwardPieces()
	keys := []string{"g", "name"}
	forwarding := runPartial(t, NewHashAggPartialSpec(keys, forwardAggs()...).New(0, 1), pieces)
	aggregating := runPartial(t, NewHashAggSpec(keys, forwardAggs()...).New(0, 1), pieces)
	final := func(outs []*batch.Batch) string {
		op := NewHashAggSpec(keys, mergeAggs()...).New(0, 1)
		consumeAll(t, op, 0, outs...)
		return encodeOuts(finalize(t, op))
	}
	want := final(aggregating.outs)
	if got := final(forwarding.outs); got != want {
		t.Error("the final aggregate over forwarded states differs from the one over aggregated states")
	}
	direct := NewHashAggSpec(keys, forwardAggs()...).New(0, 1)
	consumeAll(t, direct, 0, pieces...)
	if got := encodeOuts(finalize(t, direct)); got != want {
		t.Error("the two-stage aggregate differs from the single-stage one")
	}
	if len(aggregating.outs) != 1 || len(forwarding.outs) < 3 {
		t.Fatalf("emitted %d aggregated and %d forwarding batches", len(aggregating.outs), len(forwarding.outs))
	}
	for i, b := range forwarding.outs {
		if !b.Schema.Equal(aggregating.outs[0].Schema) {
			t.Errorf("batch %d: schema %s, finalized %s", i, b.Schema, aggregating.outs[0].Schema)
		}
	}
}

// TestQuickDistinctOverHalfCountsExactly: the forwarding test is exactly
// "more than half the hashes are distinct".
func TestQuickDistinctOverHalfCountsExactly(t *testing.T) {
	f := func(raw []uint8, spread uint8) bool {
		hashes := make([]uint64, len(raw))
		for i, v := range raw {
			hashes[i] = uint64(v) % (uint64(spread) + 1) * 0x9E3779B97F4A7C15 // 0 included
		}
		set := map[uint64]bool{}
		for _, h := range hashes {
			set[h] = true
		}
		return distinctOverHalf(hashes) == (2*len(set) > len(hashes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
