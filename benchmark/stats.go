package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (the mean of the two middle values for
// an even count), or NaN for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), which is
// what the acceptance check of this benchmark uses. One value is its own
// quartiles; none gives NaN.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(median(vs))
}

// geomean returns the geometric mean of the positive values in vs, or NaN
// when there are none.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}
