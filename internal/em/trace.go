package em

// This file is the tracing half of the EM simulator: structured span
// events that attribute a query's I/O cost to the algorithmic phase that
// incurred it (a Theorem 2 round, a core-set chain level, an overlay tail
// scan, …).
//
// The design constraint is that tracing must be invisible when off: the
// hot query paths of every reduction call BeginSpan/EndSpan
// unconditionally, and with no sink installed both are a single atomic
// load with zero allocation (guarded by BenchmarkTraceOverhead and
// TestSpanOffPathZeroAlloc). Tracing must also never perturb the counters
// it observes — spans only *read* the I/O counters, so enabling a sink
// cannot change any measured I/O count (the "observer effect" discussed
// in DESIGN.md §9).
//
// Spans take the query's view exactly as charges do: a span begun with a
// QueryView snapshots the view's private counters and is buffered on the
// view, giving exact per-query phase deltas that the query's caller reads
// back through QueryView.Trace; a span begun with a nil view (builds,
// updates, flush merges — all under the caller's exclusive-access
// contract) snapshots the shared atomic counters and is delivered to the
// sink immediately.
// Shared-path spans taken while other goroutines are charging I/Os
// concurrently are data-race-free but attribute the interleaved charges
// to the open span; exact per-query traces therefore come from the
// QueryView path, which QueryBatch uses for every query.

// TraceEvent is one completed span: an algorithmic phase together with
// the EM I/O deltas incurred while it was open.
type TraceEvent struct {
	// Phase names the algorithmic phase, namespaced by the emitting
	// layer: "t1.*" (Theorem 1), "t2.*" (Theorem 2), "dyn.*" (the
	// logarithmic-method overlay), "em.*" (this package). DESIGN.md §9
	// lists the full taxonomy.
	Phase string
	// Level is the structure level the phase ran on (core-set chain
	// depth, ladder rung, overlay level), or -1 when not applicable.
	Level int
	// Arg is a phase-specific magnitude: items scanned, round ordinal,
	// items an overlay level's sub-queries returned, batch size. See the
	// taxonomy for each phase.
	Arg int64
	// Depth is the span nesting depth within its query. Depth-0 spans
	// partition the query's total cost: summed per counter they equal
	// the query's Stats exactly (any gap is closed by a synthetic
	// PhaseUnattributed event at query end).
	Depth int
	// Reads, Writes and Hits are the I/O counter deltas between the
	// span's begin and end.
	Reads, Writes, Hits int64
}

// IOs returns the span's Reads + Writes, the EM model's cost metric.
func (ev TraceEvent) IOs() int64 { return ev.Reads + ev.Writes }

// PhaseUnattributed is the synthetic phase appended at query end when the
// depth-0 spans do not cover the query's full cost (e.g. a facade path
// that charges I/Os outside any instrumented phase). It keeps the
// invariant "depth-0 deltas sum to the query's Stats" true by
// construction while still exposing how much cost escaped attribution.
const PhaseUnattributed = "em.unattributed"

// A TraceSink receives the spans completed outside any query view:
// build, update, flush and rebuild phases, or queries run on the shared
// path. Spans inside a view never reach it; they stay buffered on the
// view. Implementations must be safe for concurrent use and must not
// issue charges against the tracker they observe.
type TraceSink interface {
	Event(ev TraceEvent)
}

// sinkBox wraps the installed sink so the tracker can hold it in an
// atomic.Pointer (interfaces are not directly atomically storable).
type sinkBox struct{ s TraceSink }

// SetTraceSink installs (or, with nil, removes) the tracker's trace sink.
// Install the sink before issuing queries; swapping it while spans are
// open drops those spans. A nil sink disables tracing entirely and
// restores the zero-cost path.
func (t *Tracker) SetTraceSink(s TraceSink) {
	if s == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&sinkBox{s: s})
}

// Tracing reports whether a trace sink is installed.
func (t *Tracker) Tracing() bool { return t != nil && t.sink.Load() != nil }

// SpanMark is the begin-marker of a span: a snapshot of the I/O counters
// the matching EndSpan will diff against. It is a plain value — no
// allocation — and its zero value is inactive, so the off path costs
// nothing beyond the BeginSpan call itself.
type SpanMark struct {
	reads, writes, hits int64
	depth               int32
	active              bool
	shared              bool
}

// Active reports whether the mark was taken with tracing enabled.
func (m SpanMark) Active() bool { return m.active }

// BeginSpan opens a span on v (nil: the shared path) and returns its mark.
// With no sink installed (or a nil tracker) it returns an inactive mark
// at the cost of one atomic load. Spans must be properly nested per view
// and closed by EndSpan, with the same view, before the view ends.
func (t *Tracker) BeginSpan(v *QueryView) SpanMark {
	if t == nil || t.sink.Load() == nil {
		return SpanMark{}
	}
	if v != nil {
		t.own(v)
		m := SpanMark{reads: v.reads, writes: v.writes, hits: v.hits, depth: v.spanDepth, active: true}
		v.spanDepth++
		return m
	}
	return SpanMark{
		reads:  t.reads.Load(),
		writes: t.writes.Load(),
		hits:   t.hits.Load(),
		depth:  t.spanDepth.Add(1) - 1,
		active: true,
		shared: true,
	}
}

// EndSpan closes a span: it computes the counter deltas since the mark
// and either buffers the event on the query view v that BeginSpan was
// given (read back through QueryView.Trace) or, for a shared-path mark,
// delivers it to the sink immediately. Inactive marks (tracing off,
// nil tracker) no-op.
func (t *Tracker) EndSpan(v *QueryView, m SpanMark, phase string, level int, arg int64) {
	if t == nil || !m.active {
		return
	}
	if !m.shared {
		t.own(v)
		if v.ended {
			return // view ended with the span still open; drop it
		}
		v.spanDepth--
		ev := TraceEvent{
			Phase: phase, Level: level, Arg: arg, Depth: int(m.depth),
			Reads: v.reads - m.reads, Writes: v.writes - m.writes, Hits: v.hits - m.hits,
		}
		if ev.Depth == 0 {
			v.spanReads += ev.Reads
			v.spanWrites += ev.Writes
			v.spanHits += ev.Hits
		}
		v.trace = append(v.trace, ev)
		return
	}
	t.spanDepth.Add(-1)
	box := t.sink.Load()
	if box == nil {
		return // sink removed while the span was open
	}
	box.s.Event(TraceEvent{
		Phase: phase, Level: level, Arg: arg, Depth: int(m.depth),
		Reads:  t.reads.Load() - m.reads,
		Writes: t.writes.Load() - m.writes,
		Hits:   t.hits.Load() - m.hits,
	})
}
