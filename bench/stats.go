package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind a
// timing; it is printed in the table and left out of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// timing stores a statistic of a latency sample with its sample count.
func (m metrics) timing(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sample is a latency sample in seconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// q is the q-quantile of the sample.
func (s sample) q(q float64) float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return quantile(c, q)
}

// tail is the highest percentile that still has at least ten samples
// beyond it (p99 from 1000 samples, p95 from 200, p90 from 100); a
// smaller sample has no such percentile and reports its maximum.
func (s sample) tail() float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if float64(len(s))*(1-p) >= 10 {
			return s.q(p)
		}
	}
	return s.q(1)
}

// ratio is a/b, and 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
