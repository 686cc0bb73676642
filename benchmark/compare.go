package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of one (metric, workload) row of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges head against base for one metric. bound is the share of
// the base median by which the metric may worsen (0 = not gated: a
// per-layer metric can improve but never regress or be unresolved).
//
//   - unresolved: either side's inter-quartile spread exceeds the bound, so
//     the runs cannot tell a change of that size from noise;
//   - regressed: head's median is worse than base's by more than the bound;
//   - improved: head's median is better by more than both sides'
//     inter-quartile distances;
//   - unchanged: anything else.
func verdict(base, head []float64, better string, bound float64) string {
	mb, mh := median(base), median(head)
	if math.IsNaN(mb) || math.IsNaN(mh) {
		return unresolved
	}
	iqr := func(vs []float64) float64 { q1, q3 := quartiles(vs); return q3 - q1 }
	if bound > 0 && (iqr(base) > bound*math.Abs(mb) || iqr(head) > bound*math.Abs(mh)) {
		return unresolved
	}
	worse := mh - mb // > 0 when head is worse, for a lower-is-better metric
	if better == higher {
		worse = -worse
	}
	switch {
	case bound > 0 && worse > bound*math.Abs(mb):
		return regressed
	case -worse > math.Max(iqr(base), iqr(head)) && worse != 0:
		return improved
	}
	return unchanged
}

// compareFiles prints one row per (metric, workload) found in both result
// files and reports whether anything regressed: an end-to-end metric beyond
// its bound, or a workload whose share of failed operations went up.
func compareFiles(w io.Writer, basePath, headPath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	head, err := readResults(headPath)
	if err != nil {
		return false, err
	}
	return compareRuns(w, base.Runs, head.Runs), nil
}

type series struct {
	values            map[string][]float64 // metric -> one value per run
	attempted, failed int
}

// byWorkload groups runs by workload and collects each metric's values.
func byWorkload(runs []*result) map[string]*series {
	out := map[string]*series{}
	for _, r := range runs {
		s := out[r.Workload]
		if s == nil {
			s = &series{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v)
		}
	}
	return out
}

func compareRuns(w io.Writer, baseRuns, headRuns []*result) (anyRegressed bool) {
	base, head := byWorkload(baseRuns), byWorkload(headRuns)
	names := make([]string, 0, len(base))
	for name := range base {
		if head[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %-34s %-9s %12s %12s %12s %4s %12s %12s %12s %4s %8s %6s  %s\n",
		"workload", "metric", "unit", "base.median", "base.q1", "base.q3", "n", "head.median", "head.q1", "head.q3", "n", "head/base", "bound", "verdict")
	for _, name := range names {
		b, h := base[name], head[name]
		for _, sp := range allMetrics() {
			bv, hv := b.values[sp.Name], h.values[sp.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := verdict(bv, hv, sp.Better, sp.Bound)
			anyRegressed = anyRegressed || v == regressed
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			bound := "-"
			if sp.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", sp.Bound*100)
			}
			fmt.Fprintf(w, "%-10s %-34s %-9s %12.6g %12.6g %12.6g %4d %12.6g %12.6g %12.6g %4d %8.3f %6s  %s\n",
				name, sp.Name, sp.Unit, median(bv), bq1, bq3, len(bv), median(hv), hq1, hq3, len(hv),
				median(hv)/median(bv), bound, v)
		}
		bs, hs := failedShare(b), failedShare(h)
		v := unchanged
		if hs > bs {
			v, anyRegressed = regressed, true
		}
		fmt.Fprintf(w, "%-10s %-34s %-9s %12.6g %38s %12.6g %38s  %s\n", name, "ops_failed/ops_attempted", "ratio",
			bs, fmt.Sprintf("(%d/%d)", b.failed, b.attempted), hs, fmt.Sprintf("(%d/%d)", h.failed, h.attempted), v)
	}
	return anyRegressed
}

func failedShare(s *series) float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}
