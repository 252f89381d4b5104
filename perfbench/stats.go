package main

import (
	"fmt"
	"math"
	"sort"
)

// timing summarizes one timed quantity the way every timing in this
// benchmark is reported: the median, plus the highest percentile that has
// at least ten samples beyond it, with the sample count. Fewer than 11
// samples have no such percentile; TailOK is then false.
type timing struct {
	N       int
	Median  float64
	Tail    float64 // value at TailPct; valid only when TailOK
	TailPct float64 // percentile rank of Tail, in percent
	TailOK  bool
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), Median: median(s)}
	if len(s) > tailBeyond {
		// s[k] has exactly n-1-k samples at or above it in rank order;
		// k = n-1-tailBeyond leaves tailBeyond samples beyond.
		k := len(s) - 1 - tailBeyond
		t.Tail = s[k]
		t.TailPct = 100 * float64(k+1) / float64(len(s))
		t.TailOK = true
	}
	return t
}

// String renders the summary with its unit, e.g.
// "median 12.3 ms, p83.3 15.1 ms (n=60)".
func (t timing) String(unit string) string {
	if !t.TailOK {
		return fmt.Sprintf("median %.4g %s (n=%d; no percentile has %d samples beyond it)",
			t.Median, unit, t.N, tailBeyond)
	}
	return fmt.Sprintf("median %.4g %s, p%.1f %.4g %s (n=%d)",
		t.Median, unit, t.TailPct, t.Tail, unit, t.N)
}

// median of a sample set (0 for an empty set). The input need not be
// sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
