package quokka

import (
	"context"
	"strings"
	"sync"
	"testing"

	"quokka/internal/gcs"
)

func newTestCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Workers: workers, TimeScale: -1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTimeScaleZeroValueIsRealTime: a ClusterConfig that does not mention
// TimeScale sleeps nothing; only a positive value turns the cost model on.
func TestTimeScaleZeroValueIsRealTime(t *testing.T) {
	for in, want := range map[float64]float64{0: 0, -1: 0, 0.25: 0.25, 1: 1} {
		c, err := NewCluster(ClusterConfig{Workers: 1, TimeScale: in})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.inner.Cost.TimeScale; got != want {
			t.Errorf("ClusterConfig.TimeScale %v: the cluster's cost model runs at %v, want %v", in, got, want)
		}
		c.Close()
	}
}

func salesTable(t *testing.T, c *Cluster, n int) {
	t.Helper()
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 7), float64(i) * 1.5, i%2 == 0}
	}
	err := c.CreateTable("sales", []ColumnDef{
		{Name: "id", Type: Int64},
		{Name: "region", Type: Int64},
		{Name: "amount", Type: Float64},
		{Name: "online", Type: Bool},
	}, rows, 64)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDataFrameGroupBy(t *testing.T) {
	c := newTestCluster(t, 3)
	salesTable(t, c, 700)
	sess := NewSession(c)
	res, err := sess.Read("sales").
		Filter(Col("online").Eq(LitB(true))).
		GroupBy([]string{"region"}, SumOf("total", Col("amount")), CountAll("n")).
		Sort(0, Desc("total")).
		Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7: %s", res.NumRows(), res)
	}
	var total int64
	for _, row := range res.Rows() {
		total += row[2].(int64)
	}
	if total != 350 {
		t.Errorf("online rows = %d, want 350", total)
	}
	// Sorted descending by total.
	rows := res.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i][1].(float64) > rows[i-1][1].(float64) {
			t.Errorf("not sorted at row %d", i)
		}
	}
}

func TestDataFrameJoin(t *testing.T) {
	c := newTestCluster(t, 2)
	salesTable(t, c, 140)
	if err := c.CreateTable("regions", []ColumnDef{
		{Name: "rid", Type: Int64},
		{Name: "rname", Type: String},
	}, [][]any{
		{int64(0), "north"}, {int64(1), "south"}, {int64(2), "east"},
		{int64(3), "west"}, {int64(4), "up"}, {int64(5), "down"}, {int64(6), "strange"},
	}, 0); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c)
	regions := sess.Read("regions")
	res, err := sess.Read("sales").
		BroadcastJoin(regions, Inner, []string{"region"}, []string{"rid"}).
		GroupBy([]string{"rname"}, CountAll("n")).
		Sort(0, Asc("rname")).
		Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 7 {
		t.Fatalf("rows = %d: %s", res.NumRows(), res)
	}
	if res.Columns()[0] != "rname" {
		t.Errorf("columns = %v", res.Columns())
	}
	if got := res.Rows()[0][1].(int64); got != 20 {
		t.Errorf("first region count = %d, want 20", got)
	}
}

func TestJoinScalar(t *testing.T) {
	c := newTestCluster(t, 2)
	salesTable(t, c, 100)
	sess := NewSession(c)
	sales := sess.Read("sales")
	avg := sales.GroupBy(nil, SumOf("s", Col("amount")), CountAll("n"))
	res, err := sales.
		JoinScalar(avg,
			[]Named{As("id", Col("id")), As("amount", Col("amount"))},
			[]Named{As("avg_amount", Col("s").Div(Col("n")))}).
		Filter(Col("amount").Gt(Col("avg_amount"))).
		GroupBy(nil, CountAll("above")).
		Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// amounts are 0..148.5 rising linearly; about half are above average.
	got := res.Rows()[0][0].(int64)
	if got < 45 || got > 55 {
		t.Errorf("above-average count = %d", got)
	}
}

func TestPublicFaultInjection(t *testing.T) {
	c := newTestCluster(t, 4)
	salesTable(t, c, 4000)
	// Kill from inside the transaction that carries the fifth task commit,
	// so the kill lands while the query runs, however fast it is.
	c.inner.GCS = &commitKiller{Backend: c.inner.GCS, after: 5, kill: func() { c.KillWorker(2) }}
	sess := NewSession(c)
	res, err := sess.Read("sales").
		GroupBy([]string{"region"}, SumOf("total", Col("amount"))).
		Sort(0, Asc("region")).
		Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 7 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Recoveries() == 0 {
		t.Error("the query finished without recovering from the kill")
	}
	if c.AliveWorkers() != 3 {
		t.Errorf("alive = %d", c.AliveWorkers())
	}
}

// commitKiller is a gcs.Backend that calls kill once, inside the transaction
// that applies the after-th task commit (a put under a query's cur/ keys).
type commitKiller struct {
	gcs.Backend
	after int
	kill  func()

	mu      sync.Mutex
	commits int
}

func (k *commitKiller) Apply(entries []gcs.Entry) ([]bool, error) {
	applied, err := k.Backend.Apply(entries)
	if err != nil {
		return applied, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, e := range entries {
		for _, p := range e.Puts {
			if _, rest, _ := strings.Cut(strings.TrimPrefix(p.Key, "q/"), "/"); applied[i] && strings.HasPrefix(rest, "cur/") {
				k.commits++
				if k.commits == k.after {
					k.kill()
				}
			}
		}
	}
	return applied, nil
}

func TestTPCHPublicAPI(t *testing.T) {
	c := newTestCluster(t, 3)
	LoadTPCH(c, 0.002, 256)
	res, err := RunTPCH(context.Background(), c, 6, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Columns()[0] != "revenue" {
		t.Fatalf("q6: %s", res)
	}
	if len(TPCHQueries()) != 22 || len(TPCHRepresentative()) != 8 {
		t.Error("query lists wrong")
	}
	if res.Duration() <= 0 || res.TasksExecuted() == 0 {
		t.Error("report not populated")
	}
}

func TestCreateTableValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	cols := []ColumnDef{{Name: "a", Type: Int64}}
	if err := c.CreateTable("t", cols, [][]any{{1, 2}}, 0); err == nil {
		t.Error("want arity error")
	}
	if err := c.CreateTable("t", cols, [][]any{{"x"}}, 0); err == nil {
		t.Error("want type error")
	}
	if err := c.CreateTable("t", cols, [][]any{{int(3)}, {int64(4)}, {int32(5)}}, 0); err != nil {
		t.Errorf("int conversions should work: %v", err)
	}
}

func TestKillWorkerBounds(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.KillWorker(5); err == nil {
		t.Error("want error for bad worker index")
	}
	if err := c.KillWorker(0); err != nil {
		t.Error(err)
	}
	if c.Workers() != 2 || c.AliveWorkers() != 1 {
		t.Error("worker counts wrong")
	}
}

func TestSessionCompileErrors(t *testing.T) {
	c := newTestCluster(t, 1)
	salesTable(t, c, 10)
	sess := NewSession(c)
	a := sess.Read("sales")
	b := sess.Read("sales")
	// Joining mid-frames leaves 'a' dangling only if collected from it;
	// collecting from a valid sink works even with extra session frames.
	j := a.BroadcastJoin(b.GroupBy(nil, CountAll("n")).Select(As("one2", LitI(1)), As("n", Col("n"))),
		Inner, []string{"one3"}, []string{"one2"})
	_ = j
	// Collect from a frame whose upstream is fine.
	res, err := a.GroupBy(nil, CountAll("n")).Collect(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].(int64) != 10 {
		t.Errorf("count = %v", res.Rows()[0][0])
	}
}
