package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean combines per-query values so that a slow query's seconds do
// not drown a fast query's milliseconds. Non-positive values are
// skipped (a query without the measured event contributes nothing).
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
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

// tailPercentile is the fixed percentile refresh_tail_ms reports. It is
// fixed rather than chosen from the sample count so that the metric
// means the same thing on every commit: a faster engine fits more steps
// into a run, and a count-chosen percentile would then move up the
// tail and read as a regression. Every run yields at least 50 Step
// samples per query (explore-ingest's two cycles of 25 rounds per
// query; minVariants × k = 80 elsewhere), which leaves at least ten
// beyond the 80th percentile.
const tailPercentile = 80.0

// tail returns the nearest-rank tailPercentile of xs, lowered along
// {75, 50} until at least ten samples lie beyond it, together with the
// percentile used and the number of samples beyond it.
func tail(xs []float64) (v, used float64, beyond int) {
	if len(xs) == 0 {
		return 0, tailPercentile, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, q := range []float64{tailPercentile, 75, 50} {
		idx := max(int(math.Ceil(q/100*float64(len(s))))-1, 0)
		used, v, beyond = q, s[idx], len(s)-idx-1
		if beyond >= 10 {
			break
		}
	}
	return v, used, beyond
}

// perQuery collects one timing series per query name, in first-seen
// order, and reduces them to the geometric mean of per-query medians.
type perQuery struct {
	order []string
	vals  map[string][]float64
}

func newPerQuery() *perQuery { return &perQuery{vals: map[string][]float64{}} }

func (p *perQuery) add(query string, v float64) {
	if _, ok := p.vals[query]; !ok {
		p.order = append(p.order, query)
	}
	p.vals[query] = append(p.vals[query], v)
}

func (p *perQuery) geomeanOfMedians() float64 {
	meds := make([]float64, 0, len(p.order))
	for _, q := range p.order {
		meds = append(meds, median(p.vals[q]))
	}
	return geomean(meds)
}

// splitmix64 derives independent seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
