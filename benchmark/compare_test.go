package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := func(center float64) []float64 {
		return []float64{center * 0.995, center, center * 1.005, center * 0.998, center * 1.002}
	}
	noisy := []float64{70, 100, 130, 85, 115}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		bound      float64
		want       string
	}{
		{"same runs", tight(100), tight(100), lower, 0.10, unchanged},
		{"within bound", tight(100), tight(105), lower, 0.10, unchanged},
		{"worse beyond bound", tight(100), tight(112), lower, 0.10, regressed},
		{"better beyond spread", tight(100), tight(90), lower, 0.10, improved},
		{"higher is better: drop regresses", tight(100), tight(85), higher, 0.10, regressed},
		{"higher is better: rise improves", tight(100), tight(110), higher, 0.10, improved},
		{"base too noisy", noisy, tight(100), lower, 0.10, unresolved},
		{"head too noisy", tight(100), noisy, lower, 0.10, unresolved},
		{"ungated never regresses", tight(100), tight(200), lower, 0, unchanged},
		{"ungated can improve", tight(100), tight(50), lower, 0, improved},
		{"ungated noise is unchanged", noisy, tight(100), lower, 0, unchanged},
		{"no samples", nil, tight(100), lower, 0.10, unresolved},
		{"single equal values", []float64{3}, []float64{3}, lower, 0.10, unchanged},
	} {
		if got := verdict(tc.base, tc.head, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	mk := func(pass float64, failed int) *result {
		return &result{Workload: "tpch-ctl", Attempted: 44, Failed: failed,
			Metrics: map[string]float64{"pass_s": pass, "engine.tasks_per_query": 390}}
	}
	base := []*result{mk(1.00, 0), mk(1.01, 0), mk(0.99, 0)}

	var out bytes.Buffer
	if compareRuns(&out, base, []*result{mk(1.02, 0), mk(1.00, 0), mk(1.01, 0)}) {
		t.Errorf("equal runs reported a regression:\n%s", out.String())
	}
	passBound := fmt.Sprintf("%.0f%%", endToEnd[1].Bound*100) // pass_s
	for _, want := range []string{"pass_s", "engine.tasks_per_query", "ops_failed/ops_attempted", passBound, unchanged} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if !compareRuns(&out, base, []*result{mk(1.30, 0), mk(1.31, 0), mk(1.29, 0)}) || !strings.Contains(out.String(), regressed) {
		t.Errorf("a 30%% slower pass must regress:\n%s", out.String())
	}
	out.Reset()
	if !compareRuns(&out, base, []*result{mk(1.00, 1), mk(1.01, 0), mk(0.99, 0)}) {
		t.Errorf("a higher failed share must regress:\n%s", out.String())
	}
	// A workload present on one side only has nothing to be compared with.
	out.Reset()
	if compareRuns(&out, base, []*result{{Workload: "proc", Metrics: map[string]float64{"pass_s": 9}}}) {
		t.Error("disjoint workloads cannot regress")
	}
}
