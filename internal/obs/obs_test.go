package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"topk/internal/em"
)

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("demo_total", "A demo counter.", Label{Key: "index", Value: "iv"})
	c.Add(3)
	g := r.NewGauge("demo_items", "A demo gauge.")
	g.Set(7)
	r.NewGaugeFunc("demo_derived", "A computed gauge.", func() float64 { return 2.5 })

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

// TestCollectorQueryTrace splits one index's observation between its two
// entries: a finished query's trace reaches the bundle once, through
// ObserveQuery, and the collector counts only the maintenance spans.
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
	qm.ObserveQuery(3*time.Millisecond, st, events)

	if got := qm.Queries.Value(); got != 1 {
		t.Errorf("Queries = %d, want 1", got)
	}
	if got := qm.Latency.Sum(); got != int64(3*time.Millisecond) {
		t.Errorf("Latency sum = %d ns, want %d", got, int64(3*time.Millisecond))
	}
	if got := qm.IOs.Count(); got != 1 {
		t.Errorf("IOs count = %d, want 1", got)
	}
	if got := qm.IOs.Sum(); got != 8 {
		t.Errorf("IOs sum = %v, want 8", got)
	}
	if got := qm.Rounds.Count(); got != 1 {
		t.Errorf("Rounds count = %d, want 1 (one ladder query)", got)
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

	// A query without a trace (the shared single-query path) counts no
	// rounds.
	qm.ObserveQuery(time.Millisecond, em.Stats{Reads: 1}, nil)
	if got := qm.Rounds.Count(); got != 1 {
		t.Errorf("Rounds count = %d after a traceless query, want 1", got)
	}

	// Shared-path maintenance events; query spans are ignored.
	c.Event(em.TraceEvent{Phase: "dyn.flush"})
	c.Event(em.TraceEvent{Phase: "dyn.rebuild"})
	c.Event(em.TraceEvent{Phase: "t2.rebuild"})
	c.Event(em.TraceEvent{Phase: "t2.round.ok", Reads: 3})
	if got := qm.Flushes.Value(); got != 1 {
		t.Errorf("Flushes = %d, want 1", got)
	}
	if got := qm.Rebuilds.Value(); got != 2 {
		t.Errorf("Rebuilds = %d, want 2", got)
	}
	if got := qm.Queries.Value(); got != 2 {
		t.Errorf("Queries = %d after collector events, want 2", got)
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

// panicOnceWriter panics on its first Write and accepts every later one.
type panicOnceWriter struct{ calls int }

func (p *panicOnceWriter) Write(b []byte) (int, error) {
	p.calls++
	if p.calls == 1 {
		panic("writer failed")
	}
	return len(b), nil
}

// TestSlowQueryLogSurvivesPanickingWriter: a writer that panics must not
// leave the log's lock held. If it did, every later slow query on the
// index would block inside Record for good.
func TestSlowQueryLogSurvivesPanickingWriter(t *testing.T) {
	w := &panicOnceWriter{}
	l := NewSlowQueryLog(w, 1, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the writer's panic did not reach the caller")
			}
		}()
		l.Record("iv", "q1", time.Millisecond, em.Stats{Reads: 2}, nil, SlowMeta{})
	}()
	done := make(chan struct{})
	go func() {
		l.Record("iv", "q2", time.Millisecond, em.Stats{Reads: 2}, nil, SlowMeta{})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked after a writer panic: the log's lock was left held")
	}
	if got := l.Total(); got != 2 {
		t.Fatalf("Total = %d, want 2", got)
	}
}

func TestMetricsConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	qm := NewQueryMetrics(r, "iv")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				qm.ObserveQuery(time.Microsecond, em.Stats{Reads: 1}, []em.TraceEvent{{Phase: "t2.round.ok"}})
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
