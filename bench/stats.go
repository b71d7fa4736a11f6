package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of an ascending-sorted sample by
// linear interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is the shape every timing is reported in: the median, the
// quartiles beside it, and how many samples they rest on.
type summary struct {
	N           int
	Q1, Med, Q3 float64
	P90, P99    float64
}

func summarize(sample []float64) summary {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return summary{
		N:   len(s),
		Q1:  quantile(s, 0.25),
		Med: quantile(s, 0.50),
		Q3:  quantile(s, 0.75),
		P90: quantile(s, 0.90),
		P99: quantile(s, 0.99),
	}
}

func median(sample []float64) float64 { return summarize(sample).Med }

// The gated numbers are not medians but the fast quartile of a run's
// timed operations: the lower quartile of times, the upper quartile of
// rates. The reference box takes the second CPU away for seconds to
// minutes at a time (NOISE.md); interference only ever adds time, so the
// quartile on the fast side still reads undisturbed operations when up to
// three quarters of a run were disturbed, where the median gives way at
// half. Across ten runs in such a phase that took the spread from 9 % to
// 3 %. A real regression slows every operation and moves either the same.
func fastTime(sample []float64) float64 { return summarize(sample).Q1 }
func fastRate(sample []float64) float64 { return summarize(sample).Q3 }

// spread is the interquartile range as a share of the median — the
// statistic the acceptance driver computes over ten runs.
func (s summary) spread() float64 {
	if s.Med == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Med
}
