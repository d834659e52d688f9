// Package stats provides the small statistical toolkit used by the fault
// injection campaigns: sample means, binomial proportion confidence
// intervals (the paper quotes 95% CIs per Leemis & Park), and fixed-bin
// histograms for the neuron-value-distribution figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0..100) via linear interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Proportion is an estimated binomial proportion with its Wald 95%
// confidence half-width, the estimator used in statistical fault injection
// studies (Leveugle et al.; Leemis & Park).
type Proportion struct {
	Successes int
	Trials    int
}

// P returns the point estimate (0 when no trials ran).
func (p Proportion) P() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Percent returns the point estimate as a percentage.
func (p Proportion) Percent() float64 { return p.P() * 100 }

// CI95 returns the 95% Wald confidence half-width of the estimate.
func (p Proportion) CI95() float64 {
	if p.Trials == 0 {
		return 0
	}
	const z = 1.959963984540054
	est := p.P()
	return z * math.Sqrt(est*(1-est)/float64(p.Trials))
}

// Wilson95 returns the Wilson score 95% interval of the proportion, which
// unlike the Wald half-width stays meaningful at the small counts fault
// injection produces (0 or 1 SDC in a few hundred trials). With no trials
// nothing is known: the interval is [0, 1].
func (p Proportion) Wilson95() (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	n, est := float64(p.Trials), p.P()
	den := 1 + z*z/n
	center := (est + z*z/(2*n)) / den
	half := z / den * math.Sqrt(est*(1-est)/n+z*z/(4*n*n))
	return math.Max(0, center-half), math.Min(1, center+half)
}

// Below reports whether p is separably lower than q: p's Wilson 95%
// interval ends below the start of q's.
func (p Proportion) Below(q Proportion) bool {
	_, pHi := p.Wilson95()
	qLo, _ := q.Wilson95()
	return pHi < qLo
}

// String renders "x.xx% ±y.yy% (s/n)".
func (p Proportion) String() string {
	return fmt.Sprintf("%.3f%% ±%.3f%% (%d/%d)", p.Percent(), p.CI95()*100, p.Successes, p.Trials)
}

// Histogram is a fixed-bin histogram over [Lo, Hi) with overflow/underflow
// counted in the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one observation. NaNs are dropped.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	n := len(h.Counts)
	idx := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Counts[idx]++
	h.Total++
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Fraction returns the fraction of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// Sparkline renders the histogram as a one-line unicode bar chart, handy for
// the ASCII reproduction of the paper's distribution figures.
func (h *Histogram) Sparkline() string {
	marks := []rune("▁▂▃▄▅▆▇█")
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		return ""
	}
	out := make([]rune, len(h.Counts))
	for i, c := range h.Counts {
		// log scale so sparse outlier bins stay visible
		level := 0
		if c > 0 {
			level = 1 + int(float64(len(marks)-2)*math.Log1p(float64(c))/math.Log1p(float64(maxC)))
			if level >= len(marks) {
				level = len(marks) - 1
			}
		}
		out[i] = marks[level]
	}
	return string(out)
}
