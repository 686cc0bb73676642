package tpch

import (
	"context"
	"math"
	"testing"
	"time"

	"quokka/internal/batch"
	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/expr"
	"quokka/internal/storage"
)

const testSF = 0.003

var testData = Generate(testSF)

func loadCluster(t *testing.T, workers int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Workers: workers, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	Load(cl.HeadObjs, testData, 256)
	return cl
}

func runQuery(t *testing.T, cl *cluster.Cluster, q int, cfg engine.Config) *batch.Batch {
	t.Helper()
	plan, err := Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := engine.NewRunner(cl, plan, cfg)
	if err != nil {
		t.Fatalf("q%d: %v", q, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	out, _, err := r.Run(ctx)
	if err != nil {
		t.Fatalf("q%d: %v", q, err)
	}
	return out
}

func TestGeneratorShape(t *testing.T) {
	d := testData
	if d.Region.NumRows() != 5 || d.Nation.NumRows() != 25 {
		t.Fatalf("region/nation: %d/%d", d.Region.NumRows(), d.Nation.NumRows())
	}
	nOrd := scaled(baseOrders, testSF)
	if d.Orders.NumRows() != nOrd {
		t.Errorf("orders: %d, want %d", d.Orders.NumRows(), nOrd)
	}
	if d.Lineitem.NumRows() < 3*nOrd || d.Lineitem.NumRows() > 7*nOrd {
		t.Errorf("lineitem rows %d not in [3,7] per order", d.Lineitem.NumRows())
	}
	if d.PartSupp.NumRows() != 4*d.Part.NumRows() {
		t.Errorf("partsupp: %d, want %d", d.PartSupp.NumRows(), 4*d.Part.NumRows())
	}
	// Determinism: regenerate and compare a table.
	d2 := Generate(testSF)
	if string(batch.Encode(d.Lineitem)) != string(batch.Encode(d2.Lineitem)) {
		t.Error("generator is not deterministic")
	}
	// Foreign keys resolve.
	nCust := int64(d.Customer.NumRows())
	for _, ck := range d.Orders.Col("o_custkey").Ints {
		if ck < 1 || ck > nCust {
			t.Fatalf("bad o_custkey %d", ck)
		}
	}
	nPart := int64(d.Part.NumRows())
	for _, pk := range d.Lineitem.Col("l_partkey").Ints[:100] {
		if pk < 1 || pk > nPart {
			t.Fatalf("bad l_partkey %d", pk)
		}
	}
}

func TestLineitemSuppkeysMatchPartsupp(t *testing.T) {
	// Q9's partsupp join requires every (l_partkey, l_suppkey) to exist in
	// partsupp, as in dbgen.
	type pair struct{ p, s int64 }
	ps := make(map[pair]bool)
	pk := testData.PartSupp.Col("ps_partkey").Ints
	sk := testData.PartSupp.Col("ps_suppkey").Ints
	for i := range pk {
		ps[pair{pk[i], sk[i]}] = true
	}
	lp := testData.Lineitem.Col("l_partkey").Ints
	lsup := testData.Lineitem.Col("l_suppkey").Ints
	for i := range lp {
		if !ps[pair{lp[i], lsup[i]}] {
			t.Fatalf("lineitem row %d: (%d,%d) not in partsupp", i, lp[i], lsup[i])
		}
	}
}

// refQ6 computes Q6 directly over the generated lineitem table.
func refQ6() float64 {
	li := testData.Lineitem
	lo := expr.DaysOfDate(1994, 1, 1)
	hi := expr.DaysOfDate(1995, 1, 1)
	ship := li.Col("l_shipdate").Ints
	disc := li.Col("l_discount").Floats
	qty := li.Col("l_quantity").Floats
	price := li.Col("l_extendedprice").Floats
	var sum float64
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi &&
			disc[i] >= 0.05-1e-9 && disc[i] <= 0.07+1e-9 && qty[i] < 24 {
			sum += price[i] * disc[i]
		}
	}
	return sum
}

func TestQ6MatchesReference(t *testing.T) {
	cl := loadCluster(t, 4)
	out := runQuery(t, cl, 6, engine.DefaultConfig())
	if out == nil || out.NumRows() != 1 {
		t.Fatalf("q6 result: %v", out)
	}
	got := out.Col("revenue").Floats[0]
	want := refQ6()
	if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
		t.Errorf("q6 = %v, want %v", got, want)
	}
}

// refQ1Counts computes Q1's per-group row counts directly.
func refQ1Counts() map[string]int64 {
	li := testData.Lineitem
	cut := expr.DaysOfDate(1998, 9, 2)
	ship := li.Col("l_shipdate").Ints
	rf := li.Col("l_returnflag").Strings
	ls := li.Col("l_linestatus").Strings
	out := make(map[string]int64)
	for i := range ship {
		if ship[i] <= cut {
			out[rf[i]+"|"+ls[i]]++
		}
	}
	return out
}

func TestQ1MatchesReference(t *testing.T) {
	cl := loadCluster(t, 4)
	out := runQuery(t, cl, 1, engine.DefaultConfig())
	want := refQ1Counts()
	if out.NumRows() != len(want) {
		t.Fatalf("q1 groups = %d, want %d", out.NumRows(), len(want))
	}
	for i := 0; i < out.NumRows(); i++ {
		key := out.Col("l_returnflag").Strings[i] + "|" + out.Col("l_linestatus").Strings[i]
		if got := out.Col("count_order").Ints[i]; got != want[key] {
			t.Errorf("q1 group %s count = %d, want %d", key, got, want[key])
		}
	}
}

// TestAllQueriesDistributedMatchSingleWorker is the global correctness
// gate: every query must produce byte-identical results on 1 and 4 workers
// under the default (Quokka) configuration.
func TestAllQueriesDistributedMatchSingleWorker(t *testing.T) {
	for _, q := range QueryNumbers() {
		q := q
		t.Run(queryName(q), func(t *testing.T) {
			t.Parallel()
			single := runQuery(t, loadCluster(t, 1), q, engine.DefaultConfig())
			multi := runQuery(t, loadCluster(t, 4), q, engine.DefaultConfig())
			assertSameResult(t, q, single, multi)
		})
	}
}

func queryName(q int) string {
	return time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).Format("") + "Q" + itoa(q)
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

// assertSameResult compares results up to floating-point summation order:
// distributed partial sums are added in different orders at different
// parallelism, so float cells get a relative tolerance; everything else
// must match exactly.
func assertSameResult(t *testing.T, q int, a, b *batch.Batch) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("q%d: one result empty: %v vs %v", q, a, b)
	}
	if a == nil {
		return
	}
	if !a.Schema.Equal(b.Schema) {
		t.Fatalf("q%d schemas differ: %s vs %s", q, a.Schema, b.Schema)
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("q%d row counts differ: %d vs %d\n-- a:\n%v\n-- b:\n%v",
			q, a.NumRows(), b.NumRows(), a, b)
	}
	for ci, ca := range a.Cols {
		cb := b.Cols[ci]
		name := a.Schema.Fields[ci].Name
		for r := 0; r < a.NumRows(); r++ {
			if ca.Type == batch.Float64 {
				x, y := ca.Floats[r], cb.Floats[r]
				if math.Abs(x-y) > 1e-9*(math.Abs(x)+math.Abs(y))+1e-9 {
					t.Fatalf("q%d row %d col %s: %v vs %v", q, r, name, x, y)
				}
				continue
			}
			if ca.Value(r) != cb.Value(r) {
				t.Fatalf("q%d row %d col %s: %v vs %v", q, r, name, ca.Value(r), cb.Value(r))
			}
		}
	}
}

// The representative queries must also agree across all engine
// configurations the paper compares (Quokka, Spark-like, Trino-like).
func TestRepresentativeQueriesAcrossConfigs(t *testing.T) {
	for _, q := range RepresentativeQueries {
		q := q
		t.Run(queryName(q), func(t *testing.T) {
			t.Parallel()
			want := runQuery(t, loadCluster(t, 3), q, engine.DefaultConfig())
			for _, cfg := range []engine.Config{engine.SparkConfig(), engine.TrinoConfig()} {
				got := runQuery(t, loadCluster(t, 3), q, cfg)
				assertSameResult(t, q, want, got)
			}
		})
	}
}

func TestQueryErrors(t *testing.T) {
	if _, err := Query(0); err == nil {
		t.Error("Query(0) should fail")
	}
	if _, err := Query(23); err == nil {
		t.Error("Query(23) should fail")
	}
	for _, q := range QueryNumbers() {
		if _, err := Query(q); err != nil {
			t.Errorf("Query(%d): %v", q, err)
		}
	}
}
