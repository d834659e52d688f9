package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %g, want 5", Mean(xs))
	}
	sd := StdDev(xs)
	if math.Abs(sd-2.13809) > 1e-4 {
		t.Errorf("StdDev = %g, want ~2.138", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/singleton cases must be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("extreme percentiles wrong")
	}
	if Percentile(xs, 50) != 3 {
		t.Errorf("median = %g, want 3", Percentile(xs, 50))
	}
	if Percentile(xs, 25) != 2 {
		t.Errorf("Q1 = %g, want 2", Percentile(xs, 25))
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestWilson95(t *testing.T) {
	// Reference values from the algebraically equivalent form
	// (x + z²/2)/(n + z²) ± z·√n/(n + z²)·√(p̂(1−p̂) + z²/4n).
	for _, c := range []struct {
		p      Proportion
		lo, hi float64
	}{
		{Proportion{Successes: 1, Trials: 220}, 0.000803, 0.025294},
		{Proportion{Successes: 22, Trials: 220}, 0.066969, 0.146760},
		{Proportion{Successes: 0, Trials: 100}, 0, 0.036993},
		{Proportion{}, 0, 1},
	} {
		lo, hi := c.p.Wilson95()
		if math.Abs(lo-c.lo) > 1e-5 || math.Abs(hi-c.hi) > 1e-5 {
			t.Errorf("%d/%d: Wilson95 = [%.6f, %.6f], want [%.6f, %.6f]",
				c.p.Successes, c.p.Trials, lo, hi, c.lo, c.hi)
		}
	}
}

func TestBelowNeedsSeparation(t *testing.T) {
	one := Proportion{Successes: 1, Trials: 220}
	if two := (Proportion{Successes: 2, Trials: 220}); one.Below(two) {
		t.Error("1/220 vs 2/220 overlaps and must not count as lower")
	}
	if twentyTwo := (Proportion{Successes: 22, Trials: 220}); !one.Below(twentyTwo) {
		t.Error("1/220 vs 22/220 is separable and must count as lower")
	}
	if one.Below(one) {
		t.Error("a proportion is never below itself")
	}
}

func TestProportion(t *testing.T) {
	p := Proportion{Successes: 50, Trials: 1000}
	if p.P() != 0.05 || p.Percent() != 5 {
		t.Error("Proportion point estimate wrong")
	}
	ci := p.CI95()
	// 1.96*sqrt(0.05*0.95/1000) ≈ 0.01351
	if math.Abs(ci-0.013508) > 1e-4 {
		t.Errorf("CI95 = %g, want ~0.01351", ci)
	}
	zero := Proportion{}
	if zero.P() != 0 || zero.CI95() != 0 {
		t.Error("zero-trial proportion must be 0")
	}
	if zero.String() == "" || p.String() == "" {
		t.Error("String must render")
	}
}

// Property: the CI half-width shrinks as 1/sqrt(n).
func TestCIShrinks(t *testing.T) {
	small := Proportion{Successes: 5, Trials: 100}
	big := Proportion{Successes: 500, Trials: 10000}
	if big.CI95() >= small.CI95() {
		t.Error("CI must shrink with more trials at the same rate")
	}
	ratio := small.CI95() / big.CI95()
	if math.Abs(ratio-10) > 0.1 {
		t.Errorf("CI ratio = %g, want ~10", ratio)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(-2, 2, 4)
	for _, x := range []float64{-1.5, -0.5, 0.5, 1.5, 1.5} {
		h.Add(x)
	}
	want := []int{1, 1, 1, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.Total != 5 {
		t.Errorf("Total = %d, want 5", h.Total)
	}
	if h.Fraction(3) != 0.4 {
		t.Errorf("Fraction(3) = %g, want 0.4", h.Fraction(3))
	}
	if h.BinCenter(0) != -1.5 {
		t.Errorf("BinCenter(0) = %g, want -1.5", h.BinCenter(0))
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(-5)         // underflow -> bin 0
	h.Add(5)          // overflow -> last bin
	h.Add(math.NaN()) // dropped
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Total != 2 {
		t.Errorf("edge handling wrong: %v total=%d", h.Counts, h.Total)
	}
}

func TestHistogramSparkline(t *testing.T) {
	h := NewHistogram(0, 3, 3)
	if h.Sparkline() != "" {
		t.Error("empty histogram sparkline must be empty")
	}
	h.Add(0.5)
	for i := 0; i < 100; i++ {
		h.Add(2.5)
	}
	s := []rune(h.Sparkline())
	if len(s) != 3 {
		t.Fatalf("sparkline length %d, want 3", len(s))
	}
	if s[1] != '▁' {
		t.Error("empty bin should render lowest mark")
	}
	if s[2] != '█' {
		t.Error("max bin should render highest mark")
	}
}

// Property: histogram total equals number of non-NaN Adds.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-1, 1, 8)
		want := 0
		for _, x := range xs {
			h.Add(x)
			if !math.IsNaN(x) {
				want++
			}
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return h.Total == want && sum == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram must panic on invalid params")
		}
	}()
	NewHistogram(1, 0, 4)
}
