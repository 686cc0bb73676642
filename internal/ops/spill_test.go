package ops

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"quokka/internal/batch"
	"quokka/internal/expr"
	"quokka/internal/metrics"
	"quokka/internal/spill"
	"quokka/internal/storage"
)

// The spill equivalence tests pin the subsystem's core invariant: an
// operator's outputs — content AND order, per Consume call and at
// Finalize — are byte-identical whether its state stayed in memory,
// spilled at a tight budget, or spilled pathologically on every batch
// (including recursive re-partitioning at a tiny fan-out).

// spillEnv is one budgeted execution environment.
type spillEnv struct {
	disk *storage.LocalDisk
	met  *metrics.Collector
	ctx  *spill.Context
}

func newSpillEnv(budget int64, parts int) *spillEnv {
	met := &metrics.Collector{}
	disk := storage.NewLocalDisk(storage.TestCostModel(), met)
	return &spillEnv{
		disk: disk,
		met:  met,
		ctx:  spill.NewContext(disk, spill.NewAccountant(budget, met), met, parts),
	}
}

// spilledRuns reports how many run files the environment wrote.
func (e *spillEnv) spilledRuns() int64 { return e.met.Get(metrics.SpillRuns) }

// encodeOuts canonicalizes a per-call output slice for byte comparison.
func encodeOuts(outs []*batch.Batch) string {
	s := ""
	for _, o := range outs {
		s += string(batch.Encode(o)) + "|"
	}
	return s
}

// joinWorkload builds a skewed build/probe pair: multi-row keys, string
// payloads, some probe misses, several batches on both sides.
func joinWorkload(t *testing.T, rows int) (builds, probes []*batch.Batch) {
	t.Helper()
	bs := batch.NewSchema(batch.F("k", batch.Int64), batch.F("name", batch.String))
	ps := batch.NewSchema(batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	rng := rand.New(rand.NewSource(7))
	per := rows / 4
	for i := 0; i < 4; i++ {
		ks := make([]int64, per)
		ns := make([]string, per)
		for j := range ks {
			ks[j] = int64(rng.Intn(rows / 3)) // duplicate build keys
			ns[j] = fmt.Sprintf("row-%d-%d", i, j)
		}
		builds = append(builds, batch.MustNew(bs, []*batch.Column{
			batch.NewIntColumn(ks), batch.NewStringColumn(ns)}))
	}
	for i := 0; i < 6; i++ {
		ks := make([]int64, per)
		vs := make([]float64, per)
		for j := range ks {
			ks[j] = int64(rng.Intn(rows / 2)) // some misses
			vs[j] = rng.Float64() * 1000
		}
		probes = append(probes, batch.MustNew(ps, []*batch.Column{
			batch.NewIntColumn(ks), batch.NewFloatColumn(vs)}))
	}
	return builds, probes
}

// runJoin executes the join over the workload, returning the per-call
// output encodings (order matters: the engine commits each call's output
// as a task partition).
func runJoin(t *testing.T, typ JoinType, env *spillEnv, builds, probes []*batch.Batch) []string {
	t.Helper()
	j := &HashJoin{Type: typ, BuildKeys: []string{"k"}, ProbeKeys: []string{"k"}}
	if env != nil {
		j.SetSpill(env.ctx.NewOp("spill/test"))
	}
	var calls []string
	for _, b := range builds {
		if _, err := j.Consume(0, b); err != nil {
			t.Fatalf("build: %v", err)
		}
	}
	for _, p := range probes {
		out, err := j.Consume(1, p)
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		calls = append(calls, encodeOuts(out))
	}
	out, err := j.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	calls = append(calls, encodeOuts(out))
	return calls
}

func TestJoinSpillMatchesInMemory(t *testing.T) {
	builds, probes := joinWorkload(t, 2400)
	for _, typ := range []JoinType{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		want := runJoin(t, typ, nil, builds, probes)
		for _, cfg := range []struct {
			name   string
			budget int64
			parts  int
		}{
			{"huge", 1 << 30, 16},   // budget never trips
			{"tight", 20_000, 16},   // build side spills
			{"tiny", 1_000, 16},     // every batch spills, partitions paged
			{"recursive", 1_000, 2}, // 2-way fan-out forces re-splitting
			{"singleRow", 1, 2},     // pathological: nothing fits
		} {
			env := newSpillEnv(cfg.budget, cfg.parts)
			got := runJoin(t, typ, env, builds, probes)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d calls, want %d", typ, cfg.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: output of call %d differs from in-memory run", typ, cfg.name, i)
				}
			}
			if cfg.budget < 1<<30 && env.spilledRuns() == 0 {
				t.Errorf("%s/%s: expected spilling, saw none", typ, cfg.name)
			}
			if cfg.budget == 1<<30 && env.spilledRuns() != 0 {
				t.Errorf("%s/%s: unlimited-ish budget spilled %d runs", typ, cfg.name, env.spilledRuns())
			}
			if got := env.disk.UsedBytesPrefix("spill/"); got != 0 {
				t.Errorf("%s/%s: %d spill bytes leaked after finalize", typ, cfg.name, got)
			}
		}
	}
}

// aggWorkload: grouped aggregation with float sums (summation order is
// bit-observable), string min/max, counts, and int min.
func aggWorkload(t *testing.T, rows, groups int) []*batch.Batch {
	t.Helper()
	s := batch.NewSchema(
		batch.F("g", batch.Int64), batch.F("v", batch.Float64), batch.F("tag", batch.String))
	rng := rand.New(rand.NewSource(11))
	var out []*batch.Batch
	per := rows / 6
	for i := 0; i < 6; i++ {
		gs := make([]int64, per)
		vs := make([]float64, per)
		ts := make([]string, per)
		for j := range gs {
			gs[j] = int64(rng.Intn(groups))
			// Wildly varying magnitudes make float summation order
			// bit-observable: any reorder of a group's updates shows.
			vs[j] = rng.Float64() * float64(int64(1)<<uint(rng.Intn(40)))
			ts[j] = fmt.Sprintf("t%03d", rng.Intn(500))
		}
		out = append(out, batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(gs), batch.NewFloatColumn(vs), batch.NewStringColumn(ts)}))
	}
	return out
}

func runAgg(t *testing.T, env *spillEnv, inputs []*batch.Batch) string {
	t.Helper()
	a := &HashAgg{GroupBy: []string{"g"}, Aggs: []AggExpr{
		Sum("s", expr.C("v")), CountStar("c"),
		Min("lo", expr.C("tag")), Max("hi", expr.C("tag")),
		Min("vlo", expr.C("v")),
	}}
	if env != nil {
		a.SetSpill(env.ctx.NewOp("spill/test"))
	}
	for _, b := range inputs {
		if _, err := a.Consume(0, b); err != nil {
			t.Fatalf("consume: %v", err)
		}
	}
	out, err := a.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return encodeOuts(out)
}

func TestAggSpillMatchesInMemory(t *testing.T) {
	inputs := aggWorkload(t, 3000, 700)
	want := runAgg(t, nil, inputs)
	for _, cfg := range []struct {
		name   string
		budget int64
		parts  int
	}{
		{"huge", 1 << 30, 16},
		{"tight", 30_000, 16},
		{"tiny", 2_000, 16},
		{"recursive", 2_000, 2},
		{"singleRow", 1, 2},
	} {
		env := newSpillEnv(cfg.budget, cfg.parts)
		if got := runAgg(t, env, inputs); got != want {
			t.Fatalf("%s: aggregate output differs from in-memory run", cfg.name)
		}
		if cfg.budget < 1<<30 && env.spilledRuns() == 0 {
			t.Errorf("%s: expected spilling, saw none", cfg.name)
		}
		if got := env.disk.UsedBytesPrefix("spill/"); got != 0 {
			t.Errorf("%s: %d spill bytes leaked after finalize", cfg.name, got)
		}
	}
}

// TestMergeGroupOutputsIsAFullSort: partition outputs, each in key-encoding
// order as Finalize leaves them, merge into exactly what a full sort of all
// their rows gives — however the groups fell into partitions, however many
// partitions are empty, in whatever order they come. The keys share long
// prefixes, so many ties are broken past the first eight bytes.
func TestMergeGroupOutputsIsAFullSort(t *testing.T) {
	s := batch.NewSchema(batch.F("name", batch.String), batch.F("k", batch.Int64), batch.F("v", batch.Float64))
	groupBy, keyIdx := []string{"name", "k"}, []int{0, 1}
	rng := rand.New(rand.NewSource(5))
	const n = 3000
	names, ks, vs := make([]string, n), make([]int64, n), make([]float64, n)
	for i := range names {
		names[i] = strings.Repeat("x", rng.Intn(12)) + fmt.Sprint(rng.Intn(40))
		ks[i] = int64(rng.Intn(1<<20))*int64(n) + int64(i) // distinct: each row is its own group
		vs[i] = rng.Float64()
	}
	all := batch.MustNew(s, []*batch.Column{batch.NewStringColumn(names), batch.NewIntColumn(ks), batch.NewFloatColumn(vs)})
	sorted := func(b *batch.Batch, rows []int) *batch.Batch {
		key := func(r int) []byte { return batch.AppendKey(nil, b, keyIdx, r) }
		sort.Slice(rows, func(i, j int) bool { return bytes.Compare(key(rows[i]), key(rows[j])) < 0 })
		return b.Gather(rows)
	}
	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	want := batch.Encode(sorted(all, every))
	for _, parts := range []int{1, 2, 5, 16} {
		rows := make([][]int, parts+1) // one partition more, left empty
		for r := 0; r < n; r++ {
			p := rng.Intn(parts)
			rows[p] = append(rows[p], r)
		}
		outs := make([]*batch.Batch, len(rows))
		for p, rs := range rows {
			if len(rs) > 0 {
				outs[p] = sorted(all, rs)
			}
		}
		rng.Shuffle(len(outs), func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
		got, err := mergeGroupOutputs(outs, groupBy)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch.Encode(got), want) {
			t.Fatalf("%d partitions: the merge is not the full sort", parts)
		}
	}
	if got, err := mergeGroupOutputs([]*batch.Batch{nil, nil}, groupBy); got != nil || err != nil {
		t.Fatalf("merge of empty partitions: %v, %v", got, err)
	}
}

// sortWorkload: duplicate keys (stability is observable through the
// payload column) across several batches.
func sortWorkload(t *testing.T, rows int) []*batch.Batch {
	t.Helper()
	s := batch.NewSchema(
		batch.F("k", batch.Int64), batch.F("f", batch.Float64), batch.F("seq", batch.Int64))
	rng := rand.New(rand.NewSource(13))
	var out []*batch.Batch
	per := rows / 5
	seq := int64(0)
	for i := 0; i < 5; i++ {
		ks := make([]int64, per)
		fs := make([]float64, per)
		qs := make([]int64, per)
		for j := range ks {
			ks[j] = int64(rng.Intn(40)) // heavy duplication: ties everywhere
			fs[j] = rng.Float64()
			qs[j] = seq // arrival order marker: stability check
			seq++
		}
		out = append(out, batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(ks), batch.NewFloatColumn(fs), batch.NewIntColumn(qs)}))
	}
	return out
}

func runSort(t *testing.T, env *spillEnv, limit int, inputs []*batch.Batch) string {
	t.Helper()
	s := &Sort{Keys: []SortKey{Asc("k"), Desc("f")}, Limit: limit}
	if env != nil {
		s.SetSpill(env.ctx.NewOp("spill/test"))
	}
	for _, b := range inputs {
		if _, err := s.Consume(0, b); err != nil {
			t.Fatalf("consume: %v", err)
		}
	}
	out, err := s.Finalize()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return encodeOuts(out)
}

func TestSortSpillMatchesInMemory(t *testing.T) {
	inputs := sortWorkload(t, 4000)
	for _, limit := range []int{0, 37} {
		want := runSort(t, nil, limit, inputs)
		for _, cfg := range []struct {
			name   string
			budget int64
		}{
			{"huge", 1 << 30},
			{"tight", 40_000},
			{"tiny", 3_000},
			{"singleRow", 1},
		} {
			env := newSpillEnv(cfg.budget, 16)
			if got := runSort(t, env, limit, inputs); got != want {
				t.Fatalf("limit=%d %s: sorted output differs from in-memory run", limit, cfg.name)
			}
			if cfg.budget < 1<<30 && env.spilledRuns() == 0 {
				t.Errorf("limit=%d %s: expected spilling, saw none", limit, cfg.name)
			}
			if got := env.disk.UsedBytesPrefix("spill/"); got != 0 {
				t.Errorf("limit=%d %s: %d spill bytes leaked", limit, cfg.name, got)
			}
		}
	}
}

// TestSpillPeakWithinBudget: at a workable (non-pathological) budget the
// accounted high-water mark stays within it — the acceptance criterion of
// the memory governor.
func TestSpillPeakWithinBudget(t *testing.T) {
	builds, probes := joinWorkload(t, 2400)
	const budget = 24_000
	env := newSpillEnv(budget, 16)
	runJoin(t, InnerJoin, env, builds, probes)
	if peak := env.ctx.Accountant().Peak(); peak > budget {
		t.Errorf("join: accounted peak %d exceeds budget %d", peak, budget)
	}

	inputs := aggWorkload(t, 3000, 700)
	env = newSpillEnv(budget, 16)
	runAgg(t, env, inputs)
	if peak := env.ctx.Accountant().Peak(); peak > budget {
		t.Errorf("agg: accounted peak %d exceeds budget %d", peak, budget)
	}

	sorts := sortWorkload(t, 4000)
	env = newSpillEnv(budget, 16)
	runSort(t, env, 0, sorts)
	if peak := env.ctx.Accountant().Peak(); peak > budget {
		t.Errorf("sort: accounted peak %d exceeds budget %d", peak, budget)
	}
}

// TestSortSpillCascadeManyRuns: an input far larger than the budget
// produces more runs than the merge fan-in, forcing intermediate cascade
// passes — the output must still be the exact stable sort, and the
// accounted peak must respect the budget even with dozens of runs.
func TestSortSpillCascadeManyRuns(t *testing.T) {
	s := batch.NewSchema(batch.F("k", batch.Int64), batch.F("seq", batch.Int64))
	rng := rand.New(rand.NewSource(17))
	var inputs []*batch.Batch
	seq := int64(0)
	for i := 0; i < 60; i++ {
		ks := make([]int64, 120)
		qs := make([]int64, 120)
		for j := range ks {
			ks[j] = int64(rng.Intn(25)) // ties across every batch
			qs[j] = seq
			seq++
		}
		inputs = append(inputs, batch.MustNew(s, []*batch.Column{
			batch.NewIntColumn(ks), batch.NewIntColumn(qs)}))
	}
	run := func(env *spillEnv) string {
		op := &Sort{Keys: []SortKey{Asc("k")}}
		if env != nil {
			op.SetSpill(env.ctx.NewOp("spill/test"))
		}
		for _, b := range inputs {
			if _, err := op.Consume(0, b); err != nil {
				t.Fatal(err)
			}
		}
		out, err := op.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return encodeOuts(out)
	}
	want := run(nil)
	// ~2KB batches against a 6KB budget: a run every ~3 batches, ~20 runs,
	// exceeding the merge fan-in — while staying above the pathological
	// floor (16-row minimum chunks x fan-in must fit the budget).
	const budget = 6_000
	env := newSpillEnv(budget, 16)
	if got := run(env); got != want {
		t.Fatal("cascaded merge output differs from in-memory stable sort")
	}
	if runs := env.spilledRuns(); runs < 2*sortMergeFanIn {
		t.Fatalf("only %d runs written; cascade not exercised", runs)
	}
	if peak := env.ctx.Accountant().Peak(); peak > budget {
		t.Errorf("accounted peak %d exceeds budget %d despite bounded fan-in", peak, budget)
	}
	if got := env.disk.UsedBytesPrefix("spill/"); got != 0 {
		t.Errorf("%d spill bytes leaked after cascade", got)
	}
}

// TestSpillManifestIgnoresStaleFiles: run files left on disk by a dead
// incarnation (same namespace) are invisible to a fresh operator — reads
// go strictly through the in-memory manifest.
func TestSpillManifestIgnoresStaleFiles(t *testing.T) {
	builds, probes := joinWorkload(t, 1200)
	env := newSpillEnv(5_000, 16)

	// First incarnation spills, then dies without cleanup.
	j1 := &HashJoin{Type: InnerJoin, BuildKeys: []string{"k"}, ProbeKeys: []string{"k"}}
	j1.SetSpill(env.ctx.NewOp("spill/chan"))
	for _, b := range builds {
		if _, err := j1.Consume(0, b); err != nil {
			t.Fatal(err)
		}
	}
	if env.disk.UsedBytesPrefix("spill/chan") == 0 {
		t.Fatal("first incarnation did not spill; test is vacuous")
	}

	// Replacement incarnation under the SAME namespace replays the same
	// inputs; stale files must not corrupt its output.
	want := runJoin(t, InnerJoin, nil, builds, probes)
	j2 := &HashJoin{Type: InnerJoin, BuildKeys: []string{"k"}, ProbeKeys: []string{"k"}}
	j2.SetSpill(env.ctx.NewOp("spill/chan"))
	var got []string
	for _, b := range builds {
		if _, err := j2.Consume(0, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range probes {
		out, err := j2.Consume(1, p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, encodeOuts(out))
	}
	out, err := j2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, encodeOuts(out))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d differs with stale spill files on disk", i)
		}
	}
}

// TestParallelOpsSpillMatchesSerial: an aggregate run across four hash
// channels whose operators share one worker accountant, consuming in turn
// and spilling independently, merges to the same finalized bytes as the
// serial in-memory run.
func TestParallelOpsSpillMatchesSerial(t *testing.T) {
	inputs := aggWorkload(t, 3000, 700)
	want := runAgg(t, nil, inputs)
	const n = 4
	shares := scatterTo(t, inputs, []string{"g"}, n)
	for _, budget := range []int64{1 << 30, 30_000, 2_000} {
		env := newSpillEnv(budget, 16)
		spec := NewHashAggSpec([]string{"g"},
			Sum("s", expr.C("v")), CountStar("c"),
			Min("lo", expr.C("tag")), Max("hi", expr.C("tag")),
			Min("vlo", expr.C("v")))
		chans := make([]Operator, n)
		for c := range chans {
			chans[c] = spec.New(c, n)
			chans[c].(Spillable).SetSpill(env.ctx.NewOp(fmt.Sprintf("spill/ch%d", c)))
		}
		for i := range inputs {
			for c, op := range chans {
				if i < len(shares[c]) {
					consumeAll(t, op, 0, shares[c][i])
				}
			}
		}
		outs := make([]*batch.Batch, n)
		for c, op := range chans {
			if out := finalize(t, op); len(out) == 1 {
				outs[c] = out[0]
			}
		}
		merged, err := mergeGroupOutputs(outs, []string{"g"})
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeOuts([]*batch.Batch{merged}); got != want {
			t.Fatalf("budget %d: the channels' merged output differs from serial in-memory", budget)
		}
		if budget < 1<<30 && env.spilledRuns() == 0 {
			t.Errorf("budget %d: expected spilling, saw none", budget)
		}
		for _, op := range chans {
			op.(Spillable).DropSpill()
		}
		if got := env.disk.UsedBytesPrefix("spill/"); got != 0 {
			t.Errorf("budget %d: %d spill bytes leaked", budget, got)
		}
	}
}
