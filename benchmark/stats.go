package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method), so spreads printed here equal the ones the acceptance driver takes.
// A single value is its own three quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
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
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of v and
// the number of samples strictly beyond it.
func percentile(v []float64, p float64) (val float64, beyond int) {
	s := sorted(v)
	if len(s) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

// geomean averages ratios and per-row medians: every row weighs the same
// however long its operation takes. Non-positive values are skipped. The
// logarithms are summed in ascending order, so the result does not depend on
// the order of v — callers collect values in shuffled or map order, and the
// deterministic metrics must repeat to the last bit.
func geomean(v []float64) float64 {
	var sum float64
	var n int
	for _, x := range sorted(v) {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// rowGeomean is how a timing over many program rows becomes one number: the
// geometric mean over rows of each row's median.
func rowGeomean(perRow map[string][]float64) float64 {
	meds := make([]float64, 0, len(perRow))
	for _, v := range perRow {
		meds = append(meds, median(v))
	}
	return geomean(meds)
}

// spread is the interquartile range as a share of the median, the run-to-run
// noise measure the bounds are judged against.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
