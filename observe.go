package topk

import (
	"fmt"
	"io"
	"time"

	"topk/internal/dynamic"
	"topk/internal/em"
	"topk/internal/obs"
)

// This file wires the internal/obs observability layer into the index
// facades. Enabling it never changes what is measured: spans and the
// metrics collector only *read* the EM counters, so an instrumented
// query charges exactly the I/Os an uninstrumented one would (the
// observer-effect guarantee tested by BenchmarkTraceOverhead).

// TraceEvent is one span from a query's phase trace: a named phase of a
// reduction's execution together with the EM cost it consumed. It
// mirrors the internal event type so batch results can carry traces
// without exposing internal packages.
type TraceEvent struct {
	// Phase names the span: "t1.*" (Theorem 1), "t2.*" (Theorem 2),
	// "dyn.*" (overlay), or "em.unattributed" for cost outside any span.
	Phase string
	// Level is the structure level the span ran at, -1 if not leveled.
	Level int
	// Arg is a phase-specific size (items probed, candidates merged, …).
	Arg int64
	// Depth is the span's nesting depth; depth-0 spans partition the
	// query's total cost.
	Depth int
	// Reads, Writes, Hits are the EM counter deltas inside the span.
	Reads, Writes, Hits int64
}

// IOs returns the span's read+write total, the EM cost metric.
func (e TraceEvent) IOs() int64 { return e.Reads + e.Writes }

func toPublicTrace(events []em.TraceEvent) []TraceEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(events))
	for i, ev := range events {
		out[i] = TraceEvent{
			Phase: ev.Phase, Level: ev.Level, Arg: ev.Arg, Depth: ev.Depth,
			Reads: ev.Reads, Writes: ev.Writes, Hits: ev.Hits,
		}
	}
	return out
}

// nopSink keeps span recording alive when tracing is requested without
// metrics: installing any sink makes query views buffer their traces.
type nopSink struct{}

func (nopSink) Event(em.TraceEvent)                  {}
func (nopSink) QueryTrace([]em.TraceEvent, em.Stats) {}

// indexObs is one facade's observability state; a nil *indexObs is the
// fully-disabled fast path (every method nil-checks).
type indexObs struct {
	name    string
	shard   string
	tracker *em.Tracker
	reg     *obs.Registry
	qm      *obs.QueryMetrics
	slow    *obs.SlowQueryLog
	qlog    *obs.QueryLogger
	tracing bool
}

// batchLifecycle carries one batch query's request-lifecycle context
// into the observation layer: the limits it ran under, how it ended,
// and (when it aborted) the raised sentinel.
type batchLifecycle struct {
	ctx     QueryCtx
	k       int
	outcome Outcome
	abort   *em.AbortError
}

// newIndexObs builds the observability state for one index and installs
// the trace sink on its tracker. Returns nil when nothing was enabled.
func newIndexObs(name string, o Options, tracker *em.Tracker) *indexObs {
	if !o.tracing && !o.metrics && o.slowMin <= 0 && o.queryLogW == nil {
		return nil
	}
	ob := &indexObs{name: name, shard: o.shardLabel, tracker: tracker, tracing: o.tracing}
	var sink em.TraceSink = nopSink{}
	if o.metrics {
		// A shard engine registers its series in the sharded index's
		// shared registry under a shard label; a standalone engine owns
		// its registry outright.
		ob.reg = o.obsReg
		if ob.reg == nil {
			ob.reg = obs.NewRegistry()
		}
		var extra []obs.Label
		if o.shardLabel != "" {
			extra = append(extra, obs.Label{Key: "shard", Value: o.shardLabel})
		}
		ob.qm = obs.NewQueryMetrics(ob.reg, name, extra...)
		sink = &obs.Collector{M: ob.qm, Phases: obs.NewPhaseIOs(ob.reg, name, extra...)}
	}
	if o.slowMin > 0 {
		keep := o.slowKeep
		if keep <= 0 {
			keep = 64
		}
		ob.slow = obs.NewSlowQueryLog(o.slowW, o.slowMin, keep)
	}
	if o.queryLogW != nil {
		ob.qlog = obs.NewQueryLogger(o.queryLogW)
	}
	tracker.SetTraceSink(sink)
	return ob
}

// start snapshots the clock and shared counters ahead of a single
// shared-path query. Batch queries never come through here: each view's
// end already reports its query exactly, and runBatch adds its own
// latency/slow-log accounting.
func (ob *indexObs) start() (time.Time, em.Stats) {
	if ob == nil {
		return time.Time{}, em.Stats{}
	}
	return time.Now(), ob.tracker.Stats()
}

// done accounts a single shared-path query: counter deltas against the
// shared tracker (approximate if shared-path queries overlap; QueryBatch
// gives exact per-query numbers). desc is only invoked when a slow-query
// entry actually fires.
func (ob *indexObs) done(t0 time.Time, before em.Stats, desc func() string) {
	if ob == nil {
		return
	}
	d := time.Since(t0)
	delta := ob.tracker.Stats().Sub(before)
	if ob.qm != nil {
		ob.qm.Queries.Inc()
		ob.qm.Latency.Observe(d.Seconds())
		ob.qm.LatencyQ.Observe(d.Nanoseconds())
		ob.qm.IOs.Observe(float64(delta.IOs()))
		ob.qm.IOsQ.Observe(delta.IOs())
		ob.qm.Hits.Add(delta.Hits)
		ob.qm.Misses.Add(delta.Reads)
	}
	ob.observeSlow(d, delta, nil, batchLifecycle{}, desc)
	ob.observeWide(d, delta, nil, batchLifecycle{}, desc)
}

// observeBatch accounts one finished batch query. Its I/O, hit, and
// round metrics were already recorded exactly by the collector when the
// query view ended, so latency, the lifecycle counters, the slow log,
// and the wide-event log remain.
func (ob *indexObs) observeBatch(d time.Duration, st em.Stats, trace []em.TraceEvent, lc batchLifecycle, desc func() string) {
	if ob == nil {
		return
	}
	if ob.qm != nil {
		ob.qm.Latency.Observe(d.Seconds())
		ob.qm.LatencyQ.Observe(d.Nanoseconds())
		if lc.abort != nil {
			switch lc.abort.Reason {
			case em.AbortBudget:
				ob.qm.BudgetAborts.Inc()
			case em.AbortDeadline:
				ob.qm.DeadlineExceeded.Inc()
			}
		}
		if lc.outcome == OutcomeDegraded {
			ob.qm.Degraded.Inc()
		}
	}
	ob.observeSlow(d, st, trace, lc, desc)
	ob.observeWide(d, st, trace, lc, desc)
}

func (ob *indexObs) observeSlow(d time.Duration, st em.Stats, trace []em.TraceEvent, lc batchLifecycle, desc func() string) {
	if ob == nil || ob.slow == nil || st.IOs() < ob.slow.MinIOs() {
		return
	}
	if ob.qm != nil {
		ob.qm.SlowQueries.Inc()
	}
	meta := obs.SlowMeta{Outcome: lc.outcome.String(), Budget: lc.ctx.IOBudget}
	if !lc.ctx.Deadline.IsZero() {
		meta.HasDeadline = true
		meta.Slack = time.Until(lc.ctx.Deadline)
	}
	ob.slow.Record(ob.name, desc(), d, st, trace, meta)
}

// observeWide emits the one-line JSON wide event for a finished query
// when the index was built WithQueryLog: identity, cost, per-phase I/O
// split, lifecycle limits, and outcome in a single row.
func (ob *indexObs) observeWide(d time.Duration, st em.Stats, trace []em.TraceEvent, lc batchLifecycle, desc func() string) {
	if ob == nil || ob.qlog == nil {
		return
	}
	ev := obs.WideEvent{
		Problem:   ob.name,
		Shard:     ob.shard,
		Query:     desc(),
		K:         lc.k,
		LatencyUS: d.Microseconds(),
		Reads:     st.Reads,
		Writes:    st.Writes,
		Hits:      st.Hits,
		IOs:       st.IOs(),
		HitRate:   QueryStats{Reads: st.Reads, Writes: st.Writes, Hits: st.Hits}.HitRate(),
		BudgetIOs: lc.ctx.IOBudget,
		Outcome:   lc.outcome.String(),
	}
	if lc.ctx.IOBudget < 0 {
		ev.BudgetIOs = 0
	}
	for _, t := range trace {
		if t.Depth != 0 {
			continue
		}
		if ev.PhaseIOs == nil {
			ev.PhaseIOs = make(map[string]int64, 8)
		}
		ev.PhaseIOs[t.Phase] += t.Reads + t.Writes
	}
	if !lc.ctx.Deadline.IsZero() {
		slack := time.Until(lc.ctx.Deadline).Microseconds()
		ev.DeadlineSlackUS = &slack
	}
	ob.qlog.Log(ev)
}

// observeUpdate records the exact I/O delta of one Insert or Delete into
// the per-operation update-cost series. Flush and rebuild spikes inside
// the same operation additionally land in their own series via the
// collector's Event path, so the amortized median and the spike tail
// stay separable.
func (ob *indexObs) observeUpdate(delta em.Stats) {
	if ob == nil || ob.qm == nil {
		return
	}
	ob.qm.UpdateIOs.Observe(delta.IOs())
}

// observeShape refreshes the structural gauges after construction,
// Insert, or Delete. dyn is the facade's updatable engine (may be nil or
// a non-overlay engine; only the overlay reports levels, and only the
// buffered policy keeps pending runs, so the extra gauges read zero
// everywhere else).
func (ob *indexObs) observeShape(n int, dyn any) {
	if ob == nil || ob.qm == nil {
		return
	}
	ob.qm.Items.Set(int64(n))
	if o, ok := dyn.(interface{ Stats() dynamic.Stats }); ok {
		st := o.Stats()
		ob.qm.Levels.Set(int64(st.Levels))
		ob.qm.BufferedRuns.Set(int64(st.BufferedRuns))
		ob.qm.BufferedItems.Set(int64(st.BufferedItems))
	}
}

// wantTrace reports whether batch results should carry public traces.
func (ob *indexObs) wantTrace() bool { return ob != nil && ob.tracing }

// writeMetrics renders the index's metrics in Prometheus text format.
func (ob *indexObs) writeMetrics(w io.Writer) error {
	if ob == nil || ob.reg == nil {
		return fmt.Errorf("topk: metrics not enabled; build the index with WithMetrics()")
	}
	return ob.reg.WritePrometheus(w)
}

// slowLog exposes the slow-query ring buffer (nil when not enabled).
func (ob *indexObs) slowLog() *obs.SlowQueryLog {
	if ob == nil {
		return nil
	}
	return ob.slow
}
