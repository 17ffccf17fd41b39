package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie strictly above a percentile
// before it is reported: with fewer, the value is set by a handful of
// outliers and moves from run to run for no reason in the system.
const minBeyond = 10

// percentile returns the p-th percentile (nearest rank) of xs and
// whether at least minBeyond samples lie beyond it. xs need not be
// sorted; +Inf samples (refused or failed operations) count as missing
// every limit, so they sort last and can make the value +Inf.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := rank(n, p)
	return s[idx], n-idx-1 >= minBeyond
}

// rank is the 0-based nearest-rank index of the p-th percentile of n
// samples. The tolerance keeps p99.9 of 10000 at index 9989, not 9990,
// despite 99.9 having no exact binary form.
func rank(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// supportedPercentiles lists, from the highest down, the percentiles a
// report may name.
var supportedPercentiles = []float64{99.9, 99, 90, 50}

// highestSupported returns the highest percentile in
// supportedPercentiles that n samples support, or 0 when none is.
func highestSupported(n int) float64 {
	for _, p := range supportedPercentiles {
		if n-rank(n, p)-1 >= minBeyond {
			return p
		}
	}
	return 0
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples. It summarizes repeated measurements
// of one quantity inside a run (setups, rounds), not operation
// latencies, which go through percentile.
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

// metricsSnapshot is one scrape of the server's /metrics text
// exposition: full series name (with its label section) to value.
type metricsSnapshot map[string]float64

// parseMetrics reads the text exposition. Comment lines and lines that
// do not end in a number are skipped.
func parseMetrics(text string) metricsSnapshot {
	m := metricsSnapshot{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[strings.TrimSpace(line[:i])] = v
	}
	return m
}

// delta returns after minus before for every series in after; a series
// absent before counts from zero (labeled series register lazily).
func delta(before, after metricsSnapshot) metricsSnapshot {
	d := metricsSnapshot{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add accumulates other into m (summing deltas across rounds).
func (m metricsSnapshot) add(other metricsSnapshot) {
	for k, v := range other {
		m[k] += v
	}
}

// family sums every series of the named family: the bare name and all
// of its labeled variants, but not longer names sharing the prefix.
func (m metricsSnapshot) family(name string) float64 {
	total := 0.0
	for k, v := range m {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// labeled returns every series of the family whose label section
// contains the given label, keyed by that label's value.
func (m metricsSnapshot) labeled(name, label string) map[string]float64 {
	out := map[string]float64{}
	prefix := name + "{"
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		labels := strings.TrimSuffix(k[len(prefix):], "}")
		for _, kv := range strings.Split(labels, ",") {
			if val, ok := strings.CutPrefix(kv, label+"="); ok {
				out[strings.Trim(val, `"`)] += v
			}
		}
	}
	return out
}
