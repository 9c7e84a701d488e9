package em

import (
	"sync"
	"testing"
)

// recordingSink buffers everything it receives, concurrency-safely.
type recordingSink struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (s *recordingSink) Event(ev TraceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

func sumDepth0(evs []TraceEvent) (r, w, h int64) {
	for _, ev := range evs {
		if ev.Depth == 0 {
			r += ev.Reads
			w += ev.Writes
			h += ev.Hits
		}
	}
	return
}

func TestSpanInsideViewAttributesExactDeltas(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 2})
	ids := make([]BlockID, 8)
	for i := range ids {
		ids[i] = tr.Alloc()
	}
	sink := &recordingSink{}
	tr.SetTraceSink(sink)

	v := tr.BeginQuery()
	m := tr.BeginSpan(v)
	tr.Read(v, ids[0])
	tr.Read(v, ids[1])
	inner := tr.BeginSpan(v)
	tr.Read(v, ids[0]) // private-cache hit? cache holds ids[0], ids[1]; MemBlocks=2 -> hit
	tr.EndSpan(v, inner, "test.inner", 3, 7)
	tr.EndSpan(v, m, "test.outer", 0, 1)
	tr.Read(v, ids[2]) // outside any span -> residual
	st := v.End()

	evs := v.Trace()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (inner, outer, residual): %+v", len(evs), evs)
	}
	if evs[0].Phase != "test.inner" || evs[0].Depth != 1 || evs[0].Level != 3 || evs[0].Arg != 7 {
		t.Fatalf("inner event wrong: %+v", evs[0])
	}
	if evs[0].Hits != 1 || evs[0].Reads != 0 {
		t.Fatalf("inner deltas wrong: %+v", evs[0])
	}
	if evs[1].Phase != "test.outer" || evs[1].Depth != 0 || evs[1].Reads != 2 || evs[1].Hits != 1 {
		t.Fatalf("outer deltas wrong: %+v", evs[1])
	}
	if evs[2].Phase != PhaseUnattributed || evs[2].Reads != 1 {
		t.Fatalf("residual wrong: %+v", evs[2])
	}
	r, w, h := sumDepth0(evs)
	if r != st.Reads || w != st.Writes || h != st.Hits {
		t.Fatalf("depth-0 sums (%d,%d,%d) != stats (%d,%d,%d)", r, w, h, st.Reads, st.Writes, st.Hits)
	}
	if len(sink.events) != 0 {
		t.Fatalf("view spans reached the sink: %+v", sink.events)
	}
}

func TestSpanSharedPathDeliversImmediately(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	sink := &recordingSink{}
	tr.SetTraceSink(sink)

	m := tr.BeginSpan(nil)
	tr.Write(nil, id)
	tr.EndSpan(nil, m, "test.build", -1, 42)

	if len(sink.events) != 1 {
		t.Fatalf("got %d shared events, want 1", len(sink.events))
	}
	ev := sink.events[0]
	if ev.Phase != "test.build" || ev.Writes != 1 || ev.Arg != 42 || ev.Depth != 0 {
		t.Fatalf("shared event wrong: %+v", ev)
	}
}

func TestTraceDisabledByDefaultAndRemovable(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	if tr.Tracing() {
		t.Fatal("tracing on with no sink installed")
	}
	id := tr.Alloc()
	v := tr.BeginQuery()
	m := tr.BeginSpan(v)
	tr.Read(v, id)
	tr.EndSpan(v, m, "test.off", 0, 0)
	v.End()
	if len(v.Trace()) != 0 {
		t.Fatalf("events recorded with tracing off: %+v", v.Trace())
	}

	sink := &recordingSink{}
	tr.SetTraceSink(sink)
	if !tr.Tracing() {
		t.Fatal("tracing off after SetTraceSink")
	}
	tr.SetTraceSink(nil)
	if tr.Tracing() {
		t.Fatal("tracing on after removal")
	}
}

func TestNilTrackerSpansNoop(t *testing.T) {
	var tr *Tracker
	m := tr.BeginSpan(nil)
	if m.Active() {
		t.Fatal("nil tracker produced an active mark")
	}
	tr.EndSpan(nil, m, "x", 0, 0) // must not panic
	if tr.Tracing() {
		t.Fatal("nil tracker reports tracing")
	}
}

// TestSpanOffPathZeroAlloc is the allocation half of the trace-overhead
// guard (the latency half is BenchmarkTraceOverhead in the root package):
// with no sink installed, a BeginSpan/EndSpan pair on the query path must
// not allocate at all.
func TestSpanOffPathZeroAlloc(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	allocs := testing.AllocsPerRun(1000, func() {
		m := tr.BeginSpan(nil)
		tr.Read(nil, id)
		tr.EndSpan(nil, m, "test.hot", 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil-sink span path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestViewChargeZeroAlloc is the view-path twin of TestSpanOffPathZeroAlloc:
// inside an open view with no sink installed, every charge method and a
// BeginSpan/EndSpan pair must not allocate.
func TestViewChargeZeroAlloc(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	run := tr.AllocRun(2 * tr.Config().MemBlocks)
	v := tr.BeginQuery()
	defer v.End()
	allocs := testing.AllocsPerRun(1000, func() {
		m := tr.BeginSpan(v)
		tr.Read(v, id)
		tr.ReadRun(v, run, 2)
		tr.ReadRun(v, run, 2*tr.Config().MemBlocks)
		tr.PathCost(v, 9)
		tr.ScanCost(v, 3*tr.B())
		tr.EndSpan(v, m, "test.hot", 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("view charge path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestConcurrentViewTracesStayIsolated(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 4})
	ids := make([]BlockID, 64)
	for i := range ids {
		ids[i] = tr.Alloc()
	}
	sink := &recordingSink{}
	tr.SetTraceSink(sink)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := tr.BeginQuery()
			m := tr.BeginSpan(v)
			for i := 0; i < 16; i++ {
				tr.Read(v, ids[(w*16+i)%len(ids)])
			}
			tr.EndSpan(v, m, "test.q", w, int64(w))
			st := v.End()
			r, wr, h := sumDepth0(v.Trace())
			if r != st.Reads || wr != st.Writes || h != st.Hits {
				t.Errorf("worker %d: depth-0 sums (%d,%d,%d) != stats %+v", w, r, wr, h, st)
			}
		}(w)
	}
	wg.Wait()
	if len(sink.events) != 0 {
		t.Fatalf("view spans reached the sink: %+v", sink.events)
	}
}
