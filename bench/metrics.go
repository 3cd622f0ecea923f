package main

import (
	"math"
	"sort"

	"repro/internal/backend"
)

// metricDef declares one metric: the table BENCHMARK.json, the README
// and the result files are checked against.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// clock says what the number is measured on: "wall" (host time; the
	// end-to-end ones stated at nominal host speed, see hostRef),
	// "virtual" (simulated time; repeats exactly for a fixed seed),
	// "workload" (the workload's own clock: virtual on sim_*, wall on
	// real_*), or "count" (a count or ratio of counts).
	clock string
	what  string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of these from the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "wall", "cluster construction + population + warm-up, median of the run's set-ups, at nominal host speed"},
	{"goodput_ops_s", "1/s", "higher", "workload", "completed ops per second of the measure window (sim_mix_ladder: at the last client count inside the SLO)"},
	{"goodput_mb_s", "MB/s", "higher", "workload", "useful object payload moved per second of the measure window; headers and retransmissions excluded"},
	{"lat_p50_us", "us", "lower", "workload", "median op latency from the op's intended start"},
	{"lat_p99_us", "us", "lower", "workload", "99th percentile op latency from the op's intended start"},
	{"completed_share", "share", "higher", "count", "completed / generated; failed, refused and never-finished ops count against it"},
	{"wall_ops_s", "1/s", "higher", "wall", "generated ops per host second at nominal host speed, median of the measured phase's slices: simulator speed on sim_*, throughput on real_*"},
	{"allocs_per_op", "1/op", "lower", "count", "heap allocations during the measured phase per completed op"},
	{"heap_live_mb", "MB", "lower", "count", "live heap after a forced GC at the end of the measured phase, cluster still reachable, the host reference's own data not counted"},
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Clock   string  `json:"clock,omitempty"`
	Samples int     `json:"samples,omitempty"` // behind a percentile
}

// quantile returns the q-quantile of ascending xs in the samples' own
// unit. It interpolates linearly between order statistics, and across a
// run of equal values as for grouped data: simulated latencies come in
// whole nanoseconds and pile up on a few values, and a percentile that
// only ever names the pile hides how far into it the rank falls.
func quantile(xs []backend.Duration, q float64) float64 {
	n := len(xs)
	pos := q * float64(n)
	i := min(int(pos), n-1)
	v := xs[i]
	lo := sort.Search(n, func(k int) bool { return xs[k] >= v })
	if lo == 0 {
		return float64(v)
	}
	hi := sort.Search(n, func(k int) bool { return xs[k] > v })
	u := xs[lo-1]
	return float64(u) + float64(v-u)*(pos-float64(lo))/float64(hi-lo)
}

// supported reports whether n samples support the q-quantile: at least
// ten samples must lie beyond it, or the number is withheld.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

func sortedCopy(xs []backend.Duration) []backend.Duration {
	c := append([]backend.Duration(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if n := len(c); n%2 == 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return c[len(c)/2]
}

// quartiles returns Q1, median and Q3 by the exclusive method, the one
// Python's statistics.quantiles(values, n=4) uses, so spreads computed
// here match the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		v := median(c)
		return v, v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return c[j-1] + frac*(c[j]-c[j-1])
	}
	return at(1), at(2), at(3)
}
