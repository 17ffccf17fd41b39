package main

import (
	"math"
	"reflect"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 50, 10, true},    // ten samples (11..20) lie beyond the median
		{19, 50, 10, false},   // only nine do
		{1000, 99, 990, true}, // 991..1000
		{999, 99, 990, false}, // 991..999
		{100, 90, 90, true},   // 91..100
		{10000, 99.9, 9990, true},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, p%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileCountsFailuresAsMissingEveryLimit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[0], xs[1] = math.Inf(1), math.Inf(1)
	if v, _ := percentile(xs, 99); !math.IsInf(v, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", v)
	}
	if v, _ := percentile(xs, 50); v != 1 {
		t.Fatalf("p50 with 2%% failures = %v, want 1", v)
	}
}

func TestHighestSupported(t *testing.T) {
	for n, want := range map[int]float64{19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

const scrapeBefore = `# TYPE cluster_units_completed_total counter
cluster_units_completed_total{worker="w1"} 4
# TYPE http_request_duration_us histogram
http_request_duration_us_bucket{route="POST /v1/jobs",le="100"} 1
http_request_duration_us_sum{route="POST /v1/jobs"} 250
http_request_duration_us_count{route="POST /v1/jobs"} 2
# TYPE store_hits_total counter
store_hits_total 10
store_hits_total_extra 99
`

const scrapeAfter = `# TYPE cluster_units_completed_total counter
cluster_units_completed_total{worker="w1"} 10
cluster_units_completed_total{worker="w2"} 5
# TYPE http_request_duration_us histogram
http_request_duration_us_bucket{route="POST /v1/jobs",le="100"} 3
http_request_duration_us_sum{route="POST /v1/jobs"} 1250
http_request_duration_us_count{route="POST /v1/jobs"} 6
# TYPE store_hits_total counter
store_hits_total 25
store_hits_total_extra 100
malformed line
`

func TestMetricsDelta(t *testing.T) {
	d := delta(parseMetrics(scrapeBefore), parseMetrics(scrapeAfter))
	if got := d[`http_request_duration_us_sum{route="POST /v1/jobs"}`]; got != 1000 {
		t.Errorf("histogram sum delta = %v, want 1000", got)
	}
	if got := d[`http_request_duration_us_count{route="POST /v1/jobs"}`]; got != 4 {
		t.Errorf("histogram count delta = %v, want 4", got)
	}
	if got := d.family("store_hits_total"); got != 15 {
		t.Errorf("family delta = %v, want 15 (a longer name sharing the prefix is another family)", got)
	}
	if got := d.family("cluster_units_completed_total"); got != 11 {
		t.Errorf("labeled family delta = %v, want 11 (a series new in the second scrape counts from zero)", got)
	}
	want := map[string]float64{"w1": 6, "w2": 5}
	if got := d.labeled("cluster_units_completed_total", "worker"); !reflect.DeepEqual(got, want) {
		t.Errorf("per-worker delta = %v, want %v", got, want)
	}
	sum := metricsSnapshot{}
	sum.add(d)
	sum.add(d)
	if got := sum.family("store_hits_total"); got != 30 {
		t.Errorf("deltas summed over two rounds = %v, want 30", got)
	}
}
