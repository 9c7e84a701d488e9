package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"topk/internal/em"
)

// TestPrometheusTextConformance pins the full exposition of a small
// registry against the text format, version 0.0.4: HELP then TYPE per
// family, samples in registration order, label values escaped
// (backslash, double-quote, newline), HELP escaped (backslash, newline
// only — quotes stay literal), summary expansion with quantile labels.
func TestPrometheusTextConformance(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", `count of \ jobs`+"\nsecond line", Label{Key: "path", Value: `C:\tmp`})
	c.Add(3)
	g := r.NewGauge("depth", "", Label{Key: "q", Value: "a\"b"}, Label{Key: "a", Value: "nl\nend"})
	g.Set(-2)
	lh := r.NewLogHistogram("lat", "quantiles", 1)
	lh.Observe(7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total count of \\ jobs\nsecond line
# TYPE jobs_total counter
jobs_total{path="C:\\tmp"} 3
# TYPE depth gauge
depth{a="nl\nend",q="a\"b"} -2
# HELP lat quantiles
# TYPE lat summary
lat{quantile="0.5"} 7
lat{quantile="0.99"} 7
lat{quantile="0.999"} 7
lat_sum 7
lat_count 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusScaledSummaryDigits: a summary fed nanoseconds and
// exported in seconds prints each value as the exact decimal of its
// nanoseconds, with no binary noise digits: 1,802,239 ns renders as
// 0.001802239, never 0.0018022390000000002. A whole number of
// nanoseconds has at most 9 digits after the point.
func TestPrometheusScaledSummaryDigits(t *testing.T) {
	r := NewRegistry()
	lh := r.NewLogHistogram("lat_seconds", "", 1e9)
	lh.Observe(1_802_239)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "\nlat_seconds_sum 0.001802239\n") {
		t.Errorf("_sum is not the exact decimal 0.001802239:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		v := line[strings.LastIndexByte(line, ' ')+1:]
		if dot := strings.IndexByte(v, '.'); dot >= 0 && len(v)-dot-1 > 9 {
			t.Errorf("%q carries digits below a nanosecond", line)
		}
	}
}

// TestCollectorConcurrentLifecycle hammers the full observation surface —
// query traces, shared events, lazy per-phase registration, scrapes —
// from many goroutines so the race detector can inspect the summary and
// phase-attribution paths.
func TestCollectorConcurrentLifecycle(t *testing.T) {
	r := NewRegistry()
	qm := NewQueryMetrics(r, "iv")
	c := &Collector{M: qm}
	phases := []string{"t1.topk", "t2.round.ok", "t2.round.fail", "dyn.tail"}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ph := phases[(w+i)%len(phases)]
				qm.ObserveQuery(time.Duration(i)*time.Microsecond, em.Stats{Reads: int64(i%17) + 1}, []em.TraceEvent{
					{Phase: ph, Depth: 0, Reads: int64(i % 17)},
					{Phase: "t1.inner", Depth: 1, Reads: 1},
				})
				if i%100 == 0 {
					c.Event(em.TraceEvent{Phase: "dyn.flush", Reads: 3})
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, ph := range phases {
		if !strings.Contains(out, `phase="`+ph+`"`) {
			t.Errorf("per-phase series %q missing from exposition", ph)
		}
	}
	if strings.Contains(out, `phase="t1.inner"`) {
		t.Error("depth-1 span leaked into the per-phase attribution (depth-0 only)")
	}
	if qm.Queries.Value() != 8*500 {
		t.Errorf("queries counter = %d, want %d", qm.Queries.Value(), 8*500)
	}
}
