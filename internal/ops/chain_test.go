package ops

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/expr"
)

// chainMembers is the join▸map▸agg-partial chain of a fused TPC-H stage:
// two stateful, spillable members around a stateless one.
func chainMembers() []Spec {
	return []Spec{
		NewHashJoinSpec(InnerJoin, []string{"k"}, []string{"k"}),
		NewFilterProjectSpec(expr.Gt(expr.C("v"), expr.Float64(100)),
			NE("k", expr.C("k")), NE("v", expr.C("v")), NE("name", expr.C("name"))),
		NewHashAggPartialSpec([]string{"k"}, Sum("s", expr.C("v")), CountStar("c"), Min("lo", expr.C("name"))),
	}
}

// feed is one batch on one input of a chain's first member.
type feed struct {
	in int
	b  *batch.Batch
}

// joinFeeds is the join workload in order: builds on input 0, then probes.
func joinFeeds(t *testing.T) []feed {
	builds, probes := joinWorkload(t, 2400)
	var fs []feed
	for _, b := range builds {
		fs = append(fs, feed{0, b})
	}
	for _, p := range probes {
		fs = append(fs, feed{1, p})
	}
	return fs
}

// feedChain consumes fs and finalizes, returning every output batch in
// order; cut, when positive, snapshots the operator after that many feeds
// and goes on in a fresh instance restored from it.
func feedChain(t *testing.T, spec Spec, fs []feed, cut int) []*batch.Batch {
	t.Helper()
	op := spec.New(0, 1)
	var outs []*batch.Batch
	for i, f := range fs {
		if i == cut && cut > 0 {
			data, err := op.(Snapshotter).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			op = spec.New(0, 1)
			if err := op.(Snapshotter).Restore(data); err != nil {
				t.Fatal(err)
			}
		}
		outs = append(outs, consumeAll(t, op, f.in, f.b)...)
	}
	return append(outs, finalize(t, op)...)
}

// TestChainMatchesMembersInSequence: a chain's output is byte-identical to
// running its members one after another, each consuming every batch the
// previous one emitted and then finalizing — what separate stages joined by
// Direct edges compute, without the concat between them. In agg▸select the
// aggregate emits only when it finalizes, and its output still runs through
// the select.
func TestChainMatchesMembersInSequence(t *testing.T) {
	var aggFeeds []feed
	for _, b := range aggWorkload(t, 3000, 40) {
		aggFeeds = append(aggFeeds, feed{0, b})
	}
	for _, tc := range []struct {
		name    string
		members []Spec
		feeds   []feed
	}{
		{"join▸map▸agg-partial", chainMembers(), joinFeeds(t)},
		{"agg▸select", []Spec{
			NewHashAggSpec([]string{"g"}, Sum("s", expr.C("v")), CountStar("c")),
			NewProjectSpec(NE("g", expr.C("g")), NE("mean", expr.Div(expr.C("s"), expr.C("c")))),
		}, aggFeeds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := tc.members[0].New(0, 1)
			var outs []*batch.Batch
			for _, f := range tc.feeds {
				outs = append(outs, consumeAll(t, first, f.in, f.b)...)
			}
			outs = append(outs, finalize(t, first)...)
			for _, m := range tc.members[1:] {
				op := m.New(0, 1)
				var next []*batch.Batch
				for _, b := range outs {
					next = append(next, consumeAll(t, op, 0, b)...)
				}
				outs = append(next, finalize(t, op)...)
			}
			if len(outs) == 0 {
				t.Fatal("the members in sequence emitted nothing")
			}
			chain := Chain{Members: tc.members}
			if got := encodeOuts(feedChain(t, chain, tc.feeds, 0)); got != encodeOuts(outs) {
				t.Error("the chain's output differs from its members run in sequence")
			}
			if name := chain.Name(); strings.Count(name, "▸") != len(tc.members)-1 || !strings.HasPrefix(name, tc.members[0].Name()+"▸") {
				t.Errorf("chain name %q", name)
			}
		})
	}
}

// TestChainSnapshotRestoreAndGob: a chain snapshots its stateful members and
// a fresh instance restored from the snapshot finishes with the output of an
// uninterrupted one; a chain spec survives a gob round trip, as a plan
// shipped to a worker process carries it.
func TestChainSnapshotRestoreAndGob(t *testing.T) {
	fs := joinFeeds(t)
	spec := Chain{Members: chainMembers()}
	want := encodeOuts(feedChain(t, spec, fs, 0))
	if got := encodeOuts(feedChain(t, spec, fs, 7)); got != want {
		t.Error("a chain restored from its snapshot finishes differently")
	}

	type shipped struct{ Op Spec }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(shipped{Op: spec}); err != nil {
		t.Fatal(err)
	}
	var back shipped
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Op.(Chain); !ok {
		t.Fatalf("gob returned a %T", back.Op)
	}
	if got := encodeOuts(feedChain(t, back.Op, fs, 0)); got != want {
		t.Error("a gob round-tripped chain computes differently")
	}
}

// TestChainSpillsEachMember: under a tight budget both spillable members of
// join▸map▸agg-partial spill, each under its own handle inside the channel's
// namespace, the output stays the in-memory one, and DropSpill drops both.
func TestChainSpillsEachMember(t *testing.T) {
	fs := joinFeeds(t)
	spec := Chain{Members: chainMembers()}
	want := encodeOuts(feedChain(t, spec, fs, 0))

	const ns = "spill/q/3.1.e0"
	spilled := func() (*spillEnv, Operator, []*batch.Batch) {
		env := newSpillEnv(1_000, 16)
		op := spec.New(0, 1)
		op.(Spillable).SetSpill(env.ctx.NewOp(ns))
		var outs []*batch.Batch
		for _, f := range fs {
			outs = append(outs, consumeAll(t, op, f.in, f.b)...)
		}
		return env, op, outs
	}

	env, op, _ := spilled()
	for _, m := range []string{"/m0/", "/m2/"} {
		if len(env.disk.List(ns+m)) == 0 {
			t.Errorf("member %s wrote no run under %s", m, ns)
		}
	}
	if n := len(env.disk.List(ns + "/m1/")); n != 0 {
		t.Errorf("the stateless member has %d runs", n)
	}
	op.(Spillable).DropSpill()
	if got := env.disk.UsedBytesPrefix(ns); got != 0 {
		t.Errorf("%d spill bytes left under %s after DropSpill", got, ns)
	}

	env, op, outs := spilled()
	if got := encodeOuts(append(outs, finalize(t, op)...)); got != want {
		t.Error("a spilling chain's output differs from the in-memory one")
	}
	op.(Spillable).DropSpill()
	if got := env.disk.UsedBytesPrefix(ns); got != 0 {
		t.Errorf("%d spill bytes left under %s after finalize and DropSpill", got, ns)
	}
}

// passSpec is a stateless member that hands its input on from a reused slice.
type passSpec struct{}

func (passSpec) Name() string          { return "pass" }
func (passSpec) New(_, _ int) Operator { return &passOp{} }

type passOp struct{ out [1]*batch.Batch }

func (p *passOp) Consume(_ int, b *batch.Batch) ([]*batch.Batch, error) {
	p.out[0] = b
	return p.out[:], nil
}
func (p *passOp) Finalize() ([]*batch.Batch, error) { return nil, nil }

// TestChainConsumeZeroAllocs: feeding a batch down a chain allocates
// nothing of its own — each member's outputs go to the next through reused
// scratch — so a chain of allocation-free stateless members is
// allocation-free, and one over a real filter costs what the filter does.
func TestChainConsumeZeroAllocs(t *testing.T) {
	b := b2(t, []int64{1, 2, 3, 4}, []float64{1, 2, 3, 4})
	chain := Chain{Members: []Spec{passSpec{}, passSpec{}, passSpec{}}}.New(0, 1)
	if n := testing.AllocsPerRun(100, func() {
		if outs, err := chain.Consume(0, b); err != nil || len(outs) != 1 {
			t.Fatalf("chain: %v, %d outputs", err, len(outs))
		}
	}); n != 0 {
		t.Errorf("a chain of pass-through members allocates %.1f per Consume, want 0", n)
	}

	keep := expr.Gt(expr.C("v"), expr.Float64(0))
	filter := NewFilterSpec(keep).New(0, 1)
	fused := Chain{Members: []Spec{NewFilterSpec(keep), passSpec{}}}.New(0, 1)
	alone := testing.AllocsPerRun(100, func() { consumeAll(t, filter, 0, b) })
	chained := testing.AllocsPerRun(100, func() { consumeAll(t, fused, 0, b) })
	if chained != alone {
		t.Errorf("filter▸pass allocates %.1f per Consume, the filter alone %.1f", chained, alone)
	}
}
