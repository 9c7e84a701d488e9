package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"topk/internal/wrand"
)

// TestLogHistogramExactBelowResolution: values below 2^subBits have a
// bucket each, so their quantiles are exact.
func TestLogHistogramExactBelowResolution(t *testing.T) {
	h := NewLogHistogram()
	for v := int64(0); v < 1<<subBits; v++ {
		h.Observe(v)
	}
	for v := int64(0); v < 1<<subBits; v++ {
		q := float64(v+1) / float64(int64(1)<<subBits)
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %d, want exactly %d", q, got, v)
		}
	}
}

// TestLogHistogramBoundedRelativeError is the accuracy property the
// percentile gates rely on: for any workload and any quantile, the
// histogram's estimate is ≥ the exact order statistic and at most
// (1+2^-subBits)× it.
func TestLogHistogramBoundedRelativeError(t *testing.T) {
	g := wrand.New(7)
	workloads := map[string]func(i int) int64{
		"uniform":   func(int) int64 { return int64(g.Float64() * 1e6) },
		"exp":       func(int) int64 { return int64(g.ExpFloat64() * 5e4) },
		"heavytail": func(int) int64 { return int64(math.Pow(10, g.Float64()*8)) },
		"constant":  func(int) int64 { return 12345 },
		"tiny":      func(int) int64 { return int64(g.Float64() * 40) },
	}
	quantiles := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, gen := range workloads {
		h := NewLogHistogram()
		vals := make([]int64, 5000)
		for i := range vals {
			vals[i] = gen(i)
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range quantiles {
			rank := int(math.Ceil(q * float64(len(vals))))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			got := h.Quantile(q)
			if got < exact {
				t.Errorf("%s: Quantile(%v) = %d < exact %d (estimates must round up)", name, q, got, exact)
			}
			bound := float64(exact) * (1 + 1/float64(int64(1)<<subBits))
			if float64(got) > bound {
				t.Errorf("%s: Quantile(%v) = %d exceeds relative-error bound %v (exact %d)", name, q, got, bound, exact)
			}
		}
	}
}

func TestLogHistogramEmpty(t *testing.T) {
	h := NewLogHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram reports count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
}

func TestLogHistogramNegativeClampsToZero(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(-5)
	if got := h.Quantile(1); got != 0 {
		t.Errorf("negative observation bucketed as %d, want 0", got)
	}
	if h.Sum() != 0 {
		t.Errorf("Sum = %d, want 0", h.Sum())
	}
}

// TestLogHistogramZeroQueryRender: a registered but never-observed
// summary must render quantile/sum/count lines with value 0, not NaN or
// garbage — the scrape a fresh server answers before its first query.
func TestLogHistogramZeroQueryRender(t *testing.T) {
	r := NewRegistry()
	r.NewLogHistogram("idle_latency_seconds", "never observed", 1e9, Label{Key: "index", Value: "iv"})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE idle_latency_seconds summary",
		`idle_latency_seconds{index="iv",quantile="0.5"} 0`,
		`idle_latency_seconds{index="iv",quantile="0.99"} 0`,
		`idle_latency_seconds{index="iv",quantile="0.999"} 0`,
		`idle_latency_seconds_sum{index="iv"} 0`,
		`idle_latency_seconds_count{index="iv"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("zero-query render missing %q in:\n%s", want, out)
		}
	}
}

func TestLogHistogramScaleAtExport(t *testing.T) {
	r := NewRegistry()
	lh := r.NewLogHistogram("lat_seconds", "", 1e9)
	lh.Observe(2_000_000_000) // 2s in ns
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "lat_seconds_sum 2\n") {
		t.Errorf("scale not applied to _sum:\n%s", out)
	}
	// The quantile estimate rounds up by at most 1/32.
	if !strings.Contains(out, `lat_seconds{quantile="0.5"} 2.0`) &&
		!strings.Contains(out, `lat_seconds{quantile="0.5"} 2 `) &&
		!strings.Contains(out, `lat_seconds{quantile="0.5"} 2`+"\n") {
		t.Errorf("scaled quantile missing:\n%s", out)
	}
}

func TestLogHistogramConcurrent(t *testing.T) {
	h := NewLogHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := wrand.New(uint64(w + 1))
			for i := 0; i < 2000; i++ {
				h.Observe(int64(g.Float64() * 1e6))
				if i%64 == 0 {
					h.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8*2000 {
		t.Fatalf("Count = %d, want %d", h.Count(), 8*2000)
	}
	got := h.Quantile(1)
	if got < h.Max() {
		t.Fatalf("Quantile(1) = %d below exact max %d (estimates must round up)", got, h.Max())
	}
	if bound := float64(h.Max()) * (1 + 1/float64(int64(1)<<subBits)); float64(got) > bound {
		t.Fatalf("Quantile(1) = %d exceeds relative-error bound %v (max %d)", got, bound, h.Max())
	}
}
