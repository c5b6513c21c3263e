package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// summary is a timing distribution reduced to what the benchmark
// reports: the sample count, the median and the 99th percentile, plus
// the extremes for the human-readable notes.
type summary struct {
	N                  int
	Min, P50, P99, Max float64
}

// summarize sorts a copy of xs and returns its summary. An empty sample
// summarizes to zeros with N = 0.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Min: s[0], P50: quantileSorted(s, 0.50), P99: quantileSorted(s, 0.99), Max: s[len(s)-1]}
}

// tail reports how many samples lie above the 99th percentile, so a
// reader can tell whether the p99 rests on a real tail (the guide's
// "at least ten samples beyond it") or on the largest one or two.
func (s summary) tail() int { return s.N - int(math.Ceil(0.99*float64(s.N))) }

func (s summary) String() string {
	return fmt.Sprintf("min %.4g  p50 %.4g  p99 %.4g  max %.4g  (n=%d, %d beyond p99)", s.Min, s.P50, s.P99, s.Max, s.N, s.tail())
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty sample.
func median(xs []float64) float64 { return summarize(xs).P50 }

// quantileSorted interpolates linearly between the closest ranks of an
// ascending sample, the same rule as numpy's default and Python's
// statistics.quantiles(method="inclusive").
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// mib converts a byte count to the MB the metrics report (2^20 bytes).
func mib(n uint64) float64 { return float64(n) / (1 << 20) }

// seconds and millis convert durations for reporting.
func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads a process's high-water resident set size (VmHWM) from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", path, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}
