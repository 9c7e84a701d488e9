package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"topk/internal/em"
)

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("got %d bounds, %d buckets", len(bounds), len(cum))
	}
	// <=1: {0.5, 1}; <=2: +{1.5}; <=4: +{3}; +Inf: +{100}
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("Sum = %v, want 106", h.Sum())
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("ExpBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
	lin := LinearBuckets(1, 1, 3)
	for i, want := range []float64{1, 2, 3} {
		if lin[i] != want {
			t.Errorf("LinearBuckets[%d] = %v, want %v", i, lin[i], want)
		}
	}
}

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("demo_total", "A demo counter.", Label{Key: "index", Value: "iv"})
	c.Add(3)
	g := r.NewGauge("demo_items", "A demo gauge.")
	g.Set(7)
	r.NewGaugeFunc("demo_derived", "A computed gauge.", func() float64 { return 2.5 })
	h := r.NewHistogram("demo_ios", "A demo histogram.", []float64{1, 2}, Label{Key: "index", Value: "iv"})
	h.Observe(1)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP demo_total A demo counter.\n",
		"# TYPE demo_total counter\n",
		`demo_total{index="iv"} 3` + "\n",
		"# TYPE demo_items gauge\n",
		"demo_items 7\n",
		"demo_derived 2.5\n",
		"# TYPE demo_ios histogram\n",
		`demo_ios_bucket{index="iv",le="1"} 1` + "\n",
		`demo_ios_bucket{index="iv",le="2"} 1` + "\n",
		`demo_ios_bucket{index="iv",le="+Inf"} 2` + "\n",
		`demo_ios_sum{index="iv"} 6` + "\n",
		`demo_ios_count{index="iv"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- got ---\n%s", want, out)
		}
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch did not panic")
			}
		}()
		r.NewGauge("x_total", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate series did not panic")
			}
		}()
		r.NewCounter("x_total", "")
	}()
}

func TestRegistryEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("esc_total", "line1\nline2", Label{Key: "q", Value: `a"b\c`})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total line1\nline2`) {
		t.Errorf("help not escaped: %q", out)
	}
	if !strings.Contains(out, `q="a\"b\\c"`) {
		t.Errorf("label not escaped: %q", out)
	}
}

func TestCollectorQueryTrace(t *testing.T) {
	r := NewRegistry()
	qm := NewQueryMetrics(r, "iv")
	c := &Collector{M: qm}

	events := []em.TraceEvent{
		{Phase: "t2.round.fail", Level: 3, Reads: 4},
		{Phase: "t2.round.ok", Level: 3, Reads: 2},
		{Phase: "em.unattributed", Reads: 1},
	}
	st := em.Stats{Reads: 7, Writes: 1, Hits: 5}
	c.QueryTrace(events, st)

	if got := qm.Queries.Value(); got != 1 {
		t.Errorf("Queries = %d, want 1", got)
	}
	if got := qm.IOs.Count(); got != 1 {
		t.Errorf("IOs count = %d, want 1", got)
	}
	if got := qm.IOs.Sum(); got != 8 {
		t.Errorf("IOs sum = %v, want 8", got)
	}
	if got := qm.Rounds.Sum(); got != 2 {
		t.Errorf("Rounds sum = %v, want 2", got)
	}
	if got := qm.Hits.Value(); got != 5 {
		t.Errorf("Hits = %d, want 5", got)
	}
	if got := qm.Misses.Value(); got != 7 {
		t.Errorf("Misses = %d, want 7", got)
	}

	// Shared-path maintenance events.
	c.Event(em.TraceEvent{Phase: "dyn.flush"})
	c.Event(em.TraceEvent{Phase: "dyn.rebuild"})
	c.Event(em.TraceEvent{Phase: "t2.rebuild"})
	if got := qm.Flushes.Value(); got != 1 {
		t.Errorf("Flushes = %d, want 1", got)
	}
	if got := qm.Rebuilds.Value(); got != 2 {
		t.Errorf("Rebuilds = %d, want 2", got)
	}
}

func TestCountRounds(t *testing.T) {
	events := []em.TraceEvent{
		{Phase: "t2.round.ok"},
		{Phase: "t2.round.direct"},
		{Phase: "t2.probe.ok"},
		{Phase: "t1.level"},
	}
	if got := CountRounds(events); got != 2 {
		t.Errorf("CountRounds = %d, want 2", got)
	}
}

func TestSlowQueryLogRingAndWriter(t *testing.T) {
	var sb safeBuilder
	l := NewSlowQueryLog(&sb, 10, 2)
	st := em.Stats{Reads: 12, Writes: 0, Hits: 3}
	ev := []em.TraceEvent{{Phase: "t1.level", Level: 2, Arg: 9, Reads: 12}}
	l.Record("iv", "q1", time.Millisecond, st, ev, SlowMeta{})
	l.Record("iv", "q2", time.Millisecond, st, nil, SlowMeta{})
	l.Record("iv", "q3", time.Millisecond, st, nil, SlowMeta{})

	if l.Total() != 3 {
		t.Errorf("Total = %d, want 3", l.Total())
	}
	recent := l.Recent()
	if len(recent) != 2 {
		t.Fatalf("Recent len = %d, want 2", len(recent))
	}
	if !strings.Contains(recent[0], "q2") || !strings.Contains(recent[1], "q3") {
		t.Errorf("ring order wrong: %q", recent)
	}
	out := sb.String()
	if !strings.Contains(out, "ios=12") || !strings.Contains(out, "t1.level level=2 arg=9 reads=12") {
		t.Errorf("writer output missing fields:\n%s", out)
	}
}

// TestSlowQueryLogConcurrentRecords has parallel query workers record
// into one log whose writer is not safe for concurrent use: entries must
// arrive whole (and the race detector must stay quiet).
func TestSlowQueryLogConcurrentRecords(t *testing.T) {
	var sb strings.Builder
	l := NewSlowQueryLog(&sb, 1, 4)
	const workers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Record("iv", "q", time.Millisecond, em.Stats{Reads: 2}, nil, SlowMeta{})
			}
		}()
	}
	wg.Wait()
	if got := strings.Count(sb.String(), "slow query index=iv ios=2 "); got != workers*each {
		t.Fatalf("writer holds %d whole entries, want %d", got, workers*each)
	}
}

func TestMetricsConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	qm := NewQueryMetrics(r, "iv")
	c := &Collector{M: qm}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.QueryTrace([]em.TraceEvent{{Phase: "t2.round.ok"}}, em.Stats{Reads: 1})
			}
		}()
	}
	wg.Wait()
	if got := qm.Queries.Value(); got != 8000 {
		t.Errorf("Queries = %d, want 8000", got)
	}
	if got := qm.IOs.Count(); got != 8000 {
		t.Errorf("IOs count = %d, want 8000", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}

// safeBuilder is a mutex-guarded strings.Builder for concurrent writers.
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
