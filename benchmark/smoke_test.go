package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestSmokeTPCHCtl runs one round of tpch-ctl at SF 0.002 — set-up,
// reference results, warm-up, a none and a wal pass with every result
// verified — and validates the contract line. In-memory only: no process
// is forked.
func TestSmokeTPCHCtl(t *testing.T) {
	w, ok := findWorkload("tpch-ctl")
	if !ok {
		t.Fatal("no tpch-ctl workload")
	}
	w.SF = 0.002
	res, err := runWorkload(w, options{seed: 7, seconds: 0, trace: 0, minRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(w.Queries) {
		t.Errorf("correct=%v attempted=%d failed=%d, want true, %d, 0", res.Correct, res.Attempted, res.Failed, 2*len(w.Queries))
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
		t.Fatalf("contract line is not JSON: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("contract line lacks correct/attempted/failed: %s", res.contractLine())
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics with -trace 0, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
	}
	for _, sp := range endToEnd {
		m, ok := line.Metrics[sp.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("metric %s missing", sp.Name)
		case m.Unit != sp.Unit:
			t.Errorf("metric %s has unit %q, want %q", sp.Name, m.Unit, sp.Unit)
		case *m.Value <= 0:
			t.Errorf("metric %s = %v, end-to-end metrics are never 0", sp.Name, *m.Value)
		}
	}
}

// TestSeedReproducesSchedule pins the seed plumbing: the per-round query
// order and the killed worker are functions of the seed alone.
func TestSeedReproducesSchedule(t *testing.T) {
	w, _ := findWorkload("recovery")
	schedule := func(seed int64) (orders [][]int, victims []int) {
		res := &run{w: w}
		res.seed(seed)
		for round := 0; round < 4; round++ {
			orders = append(orders, res.permutation())
			for range w.Queries {
				victims = append(victims, int(res.victim()))
			}
		}
		return orders, victims
	}
	o1, v1 := schedule(42)
	o2, v2 := schedule(42)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(v1, v2) {
		t.Errorf("seed 42 gave two schedules:\n%v %v\n%v %v", o1, v1, o2, v2)
	}
	o3, v3 := schedule(43)
	if reflect.DeepEqual(o1, o3) && reflect.DeepEqual(v1, v3) {
		t.Error("seeds 42 and 43 gave the same schedule")
	}
	for _, v := range v1 {
		if v < 1 || v >= w.Workers {
			t.Errorf("victim %d: worker 0 is never killed and there are %d workers", v, w.Workers)
		}
	}
	for _, o := range o1 {
		sorted := append([]int(nil), o...)
		sort.Ints(sorted)
		if !reflect.DeepEqual(sorted, w.Queries) {
			t.Errorf("order %v is not a permutation of %v", o, w.Queries)
		}
	}
}
