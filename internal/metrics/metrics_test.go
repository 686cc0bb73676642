package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestAddGet(t *testing.T) {
	c := &Collector{}
	c.Add(NetworkBytes, 10)
	c.Add(NetworkBytes, 5)
	if got := c.Get(NetworkBytes); got != 15 {
		t.Errorf("Get = %d, want 15", got)
	}
	if got := c.Get("never.touched"); got != 0 {
		t.Errorf("untouched counter = %d", got)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Add(DiskWriteBytes, 1) // must not panic
	if c.Get(DiskWriteBytes) != 0 {
		t.Error("nil collector should read 0")
	}
	if c.Snapshot() != nil {
		t.Error("nil collector snapshot should be nil")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	c := &Collector{}
	c.Add(GCSTxns, 3)
	snap := c.Snapshot()
	c.Add(GCSTxns, 4)
	if snap[GCSTxns] != 3 {
		t.Errorf("snapshot mutated: %d", snap[GCSTxns])
	}
	if c.Get(GCSTxns) != 7 {
		t.Errorf("counter = %d", c.Get(GCSTxns))
	}
}

func TestConcurrentAdds(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(TasksExecuted, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(TasksExecuted); got != 8000 {
		t.Errorf("lost updates: %d", got)
	}
}

// TestConcurrentNewAndExistingNames races Add, Get and Snapshot over names
// that exist and names each goroutine creates: no update is lost, no name
// is created twice, and a snapshot never reads a count above the final one.
// Meant for -race.
func TestConcurrentNewAndExistingNames(t *testing.T) {
	c := &Collector{}
	c.Add(TasksExecuted, 0)
	const goroutines, rounds = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				c.Add(TasksExecuted, 1)
				c.Add(fmt.Sprintf("new.%d", j%50), 1) // every goroutine races to create these
				if v := c.Get(TasksExecuted); v < 1 || v > goroutines*rounds {
					t.Errorf("Get = %d mid-run", v)
				}
				if v := c.Snapshot()[TasksExecuted]; v > goroutines*rounds {
					t.Errorf("Snapshot = %d mid-run", v)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Get(TasksExecuted); got != goroutines*rounds {
		t.Errorf("%s = %d, want %d", TasksExecuted, got, goroutines*rounds)
	}
	snap := c.Snapshot()
	for j := 0; j < 50; j++ {
		if got := snap[fmt.Sprintf("new.%d", j)]; got != goroutines*rounds/50 {
			t.Errorf("new.%d = %d, want %d", j, got, goroutines*rounds/50)
		}
	}
	if len(snap) != 51 {
		t.Errorf("%d names, want 51", len(snap))
	}
}

func TestStringSorted(t *testing.T) {
	c := &Collector{}
	c.Add("z.last", 1)
	c.Add("a.first", 2)
	s := c.String()
	if !strings.Contains(s, "a.first") || !strings.Contains(s, "z.last") {
		t.Fatalf("String() missing counters: %q", s)
	}
	if strings.Index(s, "a.first") > strings.Index(s, "z.last") {
		t.Error("String() not sorted")
	}
}

func TestTeeReadSemantics(t *testing.T) {
	clusterWide := &Collector{}
	perQuery := &Collector{}
	tee := Tee(clusterWide, perQuery)

	// Writes fan out to every target.
	tee.Add(TasksExecuted, 3)
	tee.Max(SpillPeakBytes, 100)
	for _, c := range []*Collector{clusterWide, perQuery} {
		if got := c.Get(TasksExecuted); got != 3 {
			t.Fatalf("target counter = %d, want 3", got)
		}
		if got := c.Get(SpillPeakBytes); got != 100 {
			t.Fatalf("target gauge = %d, want 100", got)
		}
	}
	// Histograms are not teed: a hot path resolves one per target (Hist).
	perQuery.Hist(TaskLatencyNS).Observe(1000)
	clusterWide.Hist(TaskLatencyNS).Observe(1000)

	// Reads resolve against the LAST target (the most specific one).
	clusterWide.Add(TasksExecuted, 100)
	clusterWide.Hist(TaskLatencyNS).Observe(1)
	if got := tee.Get(TasksExecuted); got != 3 {
		t.Fatalf("tee.Get = %d, want 3 (last target), not the cluster-wide 103", got)
	}
	if got := tee.Snapshot()[TasksExecuted]; got != 3 {
		t.Fatalf("tee.Snapshot = %d, want 3 (last target)", got)
	}
	if got := tee.Histograms()[TaskLatencyNS].Count; got != 1 {
		t.Fatalf("tee.Histograms count = %d, want 1 (last target)", got)
	}
	if h := tee.Hist(TaskLatencyNS); h != perQuery.Hist(TaskLatencyNS) {
		t.Fatal("tee.Hist should resolve against the last target")
	}

	// Empty and nil-target tees stay safe.
	empty := Tee()
	empty.Add(TasksExecuted, 1)
	if empty.Get(TasksExecuted) != 0 || len(empty.Histograms()) != 0 || empty.Hist(TaskLatencyNS) != nil {
		t.Fatal("empty tee should read zero values")
	}
	half := Tee(nil, perQuery)
	if got := half.Get(TasksExecuted); got != 3 {
		t.Fatalf("tee with nil target: Get = %d, want 3", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Max != 1000 {
		t.Fatalf("Max = %d", s.Max)
	}
	if s.Sum != 500500 {
		t.Fatalf("Sum = %d, want 500500", s.Sum)
	}
	// Log2 buckets bound quantiles within 2x from above.
	if q := s.Quantile(0.5); q < 500 || q > 1023 {
		t.Fatalf("p50 = %d, want in [500, 1023]", q)
	}
	if q := s.Quantile(0.99); q < 990 || q > 1000 {
		t.Fatalf("p99 = %d, want in [990, 1000] (clamped to max)", q)
	}
	if q := s.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Sum != 0 {
		t.Fatal("empty snapshot should read zero")
	}
	h.Observe(-5) // clamps to 0, must not panic
	if got := h.Snapshot().Count; got != 1001 {
		t.Fatalf("Count after negative observe = %d", got)
	}
	var nilH *Histogram
	nilH.Observe(1) // no-op
}

func TestObserveAllocationFree(t *testing.T) {
	c := &Collector{}
	h := c.Hist(TaskLatencyNS) // resolved once, as hot paths do
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(123) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per call", allocs)
	}
}

func TestConcurrentObserve(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); j < 1000; j++ {
				c.Hist(FlushLatencyNS).Observe(j)
			}
		}()
	}
	wg.Wait()
	if got := c.Histograms()[FlushLatencyNS].Count; got != 8000 {
		t.Fatalf("lost observations: %d", got)
	}
}

func TestStringSections(t *testing.T) {
	c := &Collector{}
	c.Add(TasksExecuted, 7)
	c.Max(SpillPeakBytes, 42)
	c.Hist(TaskLatencyNS).Observe(100)
	s := c.String()
	gaugeHdr := strings.Index(s, "-- gauges")
	histHdr := strings.Index(s, "-- histograms")
	if gaugeHdr < 0 || histHdr < 0 {
		t.Fatalf("missing sections:\n%s", s)
	}
	if i := strings.Index(s, TasksExecuted); i < 0 || i > gaugeHdr {
		t.Fatalf("counter should precede the gauge section:\n%s", s)
	}
	if i := strings.Index(s, SpillPeakBytes); i < gaugeHdr || i > histHdr {
		t.Fatalf("gauge should sit in the gauge section:\n%s", s)
	}
	if i := strings.Index(s, TaskLatencyNS); i < histHdr {
		t.Fatalf("histogram should sit in the histogram section:\n%s", s)
	}
	if !IsGauge(QueriesPeak) || !IsGauge(SpillForcedPeak) || IsGauge(TasksExecuted) {
		t.Fatal("IsGauge misclassifies")
	}
}
