// Package telemetry provides the latency recorders and the counter
// registry the experiment harness uses to regenerate the paper's
// figures: mean, percentiles, and standard deviation (Figure 3 reports
// variability as well as central tendency) from log-bucketed histograms
// whose memory does not grow with the sample count.
package telemetry

import (
	"fmt"
	"math"
	"sync"
)

// Histogram bucket geometry: log-linear (HDR-style). Each power-of-two
// octave [2^(e-1), 2^e) is split into histSub equal-width sub-buckets,
// so bucket width ≤ value/histSub everywhere. Quantiles report a
// bucket's lower bound, which under-reports the true sample by a
// relative error < 1/histSub — the bound RelErrorBound documents.
// Octaves below histMinExp clamp into the first bucket and octaves at
// or above histMaxExp clamp into the last, which in microseconds spans
// ~0.5ns to ~6.4 virtual days: clamping never triggers for latencies.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMinExp  = -20
	histMaxExp  = 40
	histBuckets = (histMaxExp - histMinExp) * histSub
)

// RelErrorBound is the documented worst-case relative error of
// Quantile on bucketed (non-extreme) ranks: a reported quantile q
// satisfies q <= true sample < q*(1+RelErrorBound). Quantile(0) and
// Quantile(1) — and therefore Min and Max — are exact, as are Mean
// and Stddev (tracked as exact running sums, not from buckets).
const RelErrorBound = 1.0 / histSub

// Histogram records float64 samples (typically microseconds) into
// log-bucketed counts with bounded relative error, alongside exact
// running aggregates; its memory is O(1) in the sample count.
type Histogram struct {
	mu    sync.Mutex
	count uint64
	sum   float64
	sumsq float64
	min   float64
	max   float64
	zero  uint64 // samples equal to 0 (and NaN, which compares false)
	pos   []uint64
	neg   []uint64 // bucketed by magnitude
}

// NewHistogram creates an empty histogram. (Bucket arrays allocate
// lazily on first observation of each sign.)
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIdx maps v > 0 to its bucket, clamping out-of-range octaves.
func bucketIdx(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp < histMinExp {
		return 0
	}
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(frac*(2*histSub)) - histSub
	return (exp-histMinExp)*histSub + sub
}

// bucketLo is the smallest value mapping into bucket idx.
func bucketLo(idx int) float64 {
	exp := histMinExp + idx/histSub
	sub := idx % histSub
	return math.Ldexp(0.5+float64(sub)/(2*histSub), exp)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.sumsq += v * v
	switch {
	case v > 0:
		if h.pos == nil {
			h.pos = make([]uint64, histBuckets)
		}
		h.pos[bucketIdx(v)]++
	case v < 0:
		if h.neg == nil {
			h.neg = make([]uint64, histBuckets)
		}
		h.neg[bucketIdx(-v)]++
	default:
		h.zero++
	}
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Reset discards all samples (bucket arrays are kept and cleared).
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.count, h.sum, h.sumsq, h.min, h.max, h.zero = 0, 0, 0, 0, 0, 0
	clear(h.pos)
	clear(h.neg)
	h.mu.Unlock()
}

// Mean returns the exact sample mean (0 if empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Stddev returns the exact population standard deviation (0 if empty).
func (h *Histogram) Stddev() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	n := float64(h.count)
	mean := h.sum / n
	variance := h.sumsq/n - mean*mean
	if variance < 0 { // floating-point cancellation
		variance = 0
	}
	return math.Sqrt(variance)
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank over
// the buckets; 0 if empty. Quantile(0) and Quantile(1) are the exact
// min and max; interior quantiles report the rank's bucket lower
// bound, under the true sample by at most RelErrorBound relative.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	clamp := func(v float64) float64 {
		if v < h.min {
			return h.min
		}
		if v > h.max {
			return h.max
		}
		return v
	}
	var cum uint64
	if h.neg != nil {
		// Most negative (largest magnitude) first.
		for i := histBuckets - 1; i >= 0; i-- {
			if c := h.neg[i]; c != 0 {
				cum += c
				if cum >= rank {
					return clamp(-bucketLo(i))
				}
			}
		}
	}
	if h.zero != 0 {
		cum += h.zero
		if cum >= rank {
			return clamp(0)
		}
	}
	if h.pos != nil {
		for i := 0; i < histBuckets; i++ {
			if c := h.pos[i]; c != 0 {
				cum += c
				if cum >= rank {
					return clamp(bucketLo(i))
				}
			}
		}
	}
	return h.max
}

// Min returns the smallest sample, exactly (0 if empty).
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample, exactly (0 if empty).
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Bucket is one non-empty histogram bucket: Low is the bucket's
// representative value (its lower bound; the sign-mirrored upper bound
// for negative buckets) and Count the samples in it.
type Bucket struct {
	Low   float64
	Count uint64
}

// Buckets returns every non-empty bucket in ascending value order —
// the exact state two same-seed runs must agree on bit-for-bit, and
// the export the determinism tests compare.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Bucket
	if h.neg != nil {
		for i := histBuckets - 1; i >= 0; i-- {
			if c := h.neg[i]; c != 0 {
				out = append(out, Bucket{Low: -bucketLo(i), Count: c})
			}
		}
	}
	if h.zero != 0 {
		out = append(out, Bucket{Low: 0, Count: h.zero})
	}
	if h.pos != nil {
		for i := 0; i < histBuckets; i++ {
			if c := h.pos[i]; c != 0 {
				out = append(out, Bucket{Low: bucketLo(i), Count: c})
			}
		}
	}
	return out
}

// Summary is a snapshot of a histogram's statistics.
type Summary struct {
	Count  int
	Mean   float64
	Stddev float64
	Min    float64
	P50    float64
	P90    float64
	P99    float64
	P999   float64
	Max    float64
}

// Summarize computes a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Stddev: h.Stddev(),
		Min:    h.Min(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
		Max:    h.Max(),
	}
}

// String renders the summary as one table row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f p999=%.1f max=%.1f",
		s.Count, s.Mean, s.Stddev, s.Min, s.P50, s.P90, s.P99, s.P999, s.Max)
}
