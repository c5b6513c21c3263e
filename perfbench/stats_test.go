package main

import (
	"math"
	"testing"
)

func TestSummarizeCountsAndPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: summarize must sort a copy
	}
	s := summarize(xs)
	if s.N != 100 {
		t.Fatalf("N = %d, want 100", s.N)
	}
	if s.P50 != 50.5 {
		t.Errorf("P50 = %v, want 50.5", s.P50)
	}
	if math.Abs(s.P99-99.01) > 1e-9 {
		t.Errorf("P99 = %v, want 99.01", s.P99)
	}
	if s.tail() != 1 {
		t.Errorf("tail = %d, want 1 sample beyond p99 of 100", s.tail())
	}
	if xs[0] != 100 {
		t.Errorf("summarize reordered its input")
	}
	if big := summarize(make([]float64, 2000)); big.tail() != 20 {
		t.Errorf("tail of 2000 samples = %d, want 20", big.tail())
	}
}

func TestSummarizeSmallSamples(t *testing.T) {
	if s := summarize(nil); s.N != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty sample summarized to %+v", s)
	}
	if s := summarize([]float64{7}); s.N != 1 || s.P50 != 7 || s.P99 != 7 {
		t.Errorf("single sample summarized to %+v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of an odd count = %v, want 3", m)
	}
}

func TestPeakRSSOfSelf(t *testing.T) {
	rss, err := peakRSSMB(0)
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 {
		t.Errorf("peak RSS = %v MB, want > 0", rss)
	}
}

func TestRoundProfileTakesPerRoundMedians(t *testing.T) {
	outs := []outcome{{rounds: []float64{1, 10}}, {rounds: []float64{3, 30}}, {rounds: []float64{2, 20, 99}}}
	got := roundProfile(outs)
	if len(got) != 2 || got[0] != 2 || got[1] != 20 {
		t.Errorf("roundProfile = %v, want [2 20]", got)
	}
}
