package telemetry

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Stddev() != 0 || h.Quantile(0.5) != 0 ||
		h.Min() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram nonzero stats")
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if got := h.Stddev(); math.Abs(got-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("Stddev = %v", got)
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Quantile(0.5) != 3 {
		t.Fatalf("P50 = %v", h.Quantile(0.5))
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 5 {
		t.Fatal("extreme quantiles")
	}
}

func TestObserveAfterQuantile(t *testing.T) {
	// Observing after a quantile query must be reflected immediately.
	h := NewHistogram()
	h.Observe(10)
	_ = h.Quantile(0.5)
	h.Observe(1)
	if h.Quantile(0) != 1 {
		t.Fatal("observe after quantile not reflected")
	}
}

func TestHistogramRelativeErrorBound(t *testing.T) {
	// Quantiles of bucketed ranks must sit within RelErrorBound below
	// the exact nearest-rank sample.
	rng := func() func() float64 { // deterministic LCG, no math/rand dep
		s := uint64(12345)
		return func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / float64(1<<53)
		}
	}()
	h := NewHistogram()
	var samples []float64
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng()*14 - 2) // ~0.13µs .. ~162k µs, log-spread
		samples = append(samples, v)
		h.Observe(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := sorted[int(math.Ceil(q*float64(len(sorted))))-1]
		got := h.Quantile(q)
		if got > exact {
			t.Fatalf("q=%v: reported %v above exact %v", q, got, exact)
		}
		if exact > got*(1+RelErrorBound)*(1+1e-12) {
			t.Fatalf("q=%v: reported %v more than %.3f%% below exact %v",
				q, got, 100*RelErrorBound, exact)
		}
	}
}

func TestSummaryP999(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 999; i++ {
		h.Observe(10)
	}
	h.Observe(100000)
	s := h.Summarize()
	if s.P99 != 10 {
		t.Fatalf("P99 = %v, want 10", s.P99)
	}
	if s.P999 < 10*(1-RelErrorBound) || s.P999 > 10 {
		t.Fatalf("P999 = %v", s.P999)
	}
	// The outlier is the top 0.1%: Quantile just above 0.999 sees it.
	if got := h.Quantile(0.9995); got < 100000*(1-RelErrorBound) {
		t.Fatalf("Quantile(0.9995) = %v, want ~100000", got)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	h := NewHistogram()
	h.Observe(1) // allocate the positive bucket array
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42.5) }); n > 0 {
		t.Fatalf("Observe allocates %v/op after warmup, want 0", n)
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summarize()
	if s.Count != 100 || s.P50 != 50 || s.P90 != 90 || s.P99 != 99 || s.Max != 100 || s.Min != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("Reset")
	}
}

func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		last := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			v := h.Quantile(q)
			if h.Count() > 0 && v < last {
				return false
			}
			if h.Count() > 0 {
				last = v
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMeanWithinBounds(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram()
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			h.Observe(v)
			n++
		}
		if n == 0 {
			return true
		}
		m := h.Mean()
		return m >= h.Min()-1e-6 && m <= h.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(j))
				if j%100 == 0 {
					_ = h.Quantile(0.5)
					_ = h.Mean()
				}
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("Count = %d", h.Count())
	}
}
