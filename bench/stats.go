package main

import (
	"math"
	"sort"
)

// summary is what the harness keeps of a set of timings: the median,
// the quartiles and the sample count.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// summarize returns median and quartiles of xs (linear interpolation
// between order statistics, the "inclusive" method). An empty input
// yields the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile off an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minBeyond is how many samples must lie beyond a percentile before the
// harness reports it.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs, and false
// when fewer than minBeyond samples lie strictly beyond it: a tail read
// off a handful of points is noise, so the caller must not report it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	v := quantile(s, p/100)
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if beyond < minBeyond {
		return 0, false
	}
	return v, true
}
