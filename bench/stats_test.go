package main

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{3, 1, 2}, 2, 1.5, 2.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.75, 3.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 5, 3, 7},
	} {
		s := summarize(tc.in)
		if s.N != len(tc.in) || s.Median != tc.med || s.Q1 != tc.q1 || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want median %v quartiles %v, %v", tc.in, s, tc.med, tc.q1, tc.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 {
		t.Error("summarize sorted its input in place")
	}
}

// TestPercentileNeedsTenBeyond: a p95 of 200 samples has ten beyond it
// and is reported; one of 180 has nine and is not.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, ok := percentile(series(200), 95); !ok || math.Abs(v-190.05) > 1e-9 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190.05, true", v, ok)
	}
	if _, ok := percentile(series(180), 95); ok {
		t.Error("p95 of 180 samples reported with nine samples beyond it")
	}
	if _, ok := percentile(series(19), 50); ok {
		t.Error("median of 19 samples reported as a percentile with nine samples beyond it")
	}
	if _, ok := percentile(series(21), 50); !ok {
		t.Error("median of 21 samples has ten beyond it and must be reported")
	}
	if _, ok := percentile(nil, 95); ok {
		t.Error("percentile of nothing reported")
	}
}

func TestJudge(t *testing.T) {
	rep := func(v float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           verdict
	}{
		{"lower: small rise is within", rep(100, 1), rep(104, 1), true, 0.10, within},
		{"lower: big rise is worse", rep(100, 1), rep(115, 1), true, 0.10, worse},
		{"lower: big drop is better", rep(100, 1), rep(80, 1), true, 0.10, better},
		{"higher: big drop is worse", rep(100, 1), rep(80, 1), false, 0.10, worse},
		{"higher: big rise is better", rep(100, 1), rep(120, 1), false, 0.10, better},
		{"noisy parent, overlapping: unresolved", []float64{70, 90, 100, 110, 130}, []float64{90, 100, 110, 96, 104}, true, 0.10, unresolved},
		{"noisy parent, every run better: better", []float64{70, 90, 100, 110, 130}, []float64{50, 55, 60, 52, 58}, true, 0.10, better},
		{"noisy parent, every run worse: worse", []float64{70, 90, 100, 110, 130}, []float64{150, 155, 160, 152, 158}, true, 0.10, worse},
	} {
		if got := judge(tc.parent, tc.change, tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
