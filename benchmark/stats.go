package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer behind it is an anecdote, not a measurement.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// smallest sample with at least q·n samples at or below it. It fails unless
// at least minTail samples lie strictly beyond the returned rank, so a p99
// needs 1000 samples and a p90 needs 100.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n == 0 || n-(rank+1) < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			q*100, n, max(n-(rank+1), 0), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median returns the middle of xs (the mean of the two middle samples for
// even n), 0 for none. Medians need no tail, so they carry no sample floor.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// metricSet accumulates named metrics with units in the order they are
// set, plus the first error a percentile raised.
type metricSet struct {
	names  []string
	values map[string]metricValue
	err    error
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetricSet() *metricSet { return &metricSet{values: map[string]metricValue{}} }

func (m *metricSet) set(name string, v float64, unit string) {
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metricValue{Value: v, Unit: unit}
}

// setQ sets name to the q-quantile of xs, recording the error when the
// sample is too small for it.
func (m *metricSet) setQ(name string, xs []float64, q float64, unit string) {
	v, err := quantile(xs, q)
	if err != nil && m.err == nil {
		m.err = fmt.Errorf("%s: %w", name, err)
	}
	m.set(name, v, unit)
}

// setWindowed sets name to the median over sub-windows of each window's
// q-quantile, recording the error when a window is too small for it. It
// returns the per-window values.
func (m *metricSet) setWindowed(name string, windows [][]float64, q float64, unit string) []float64 {
	vals := make([]float64, 0, len(windows))
	for i, xs := range windows {
		v, err := quantile(xs, q)
		if err != nil && m.err == nil {
			m.err = fmt.Errorf("%s, sub-window %d: %w", name, i, err)
		}
		vals = append(vals, v)
	}
	m.set(name, median(vals), unit)
	return vals
}
