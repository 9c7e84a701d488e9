package obs

import (
	"strings"
	"sync"
	"time"

	"topk/internal/em"
)

// QueryMetrics is the standard metric bundle for one index instance.
// Names match the exposition in DESIGN.md §9; every series carries an
// {index="..."} label (plus any extra labels, e.g. shard="0" for one
// shard of a partitioned index) so several instances can share one
// Registry. Each distribution is a LogHistogram exported as a summary
// (p50/p99/p999 plus _sum and _count), and each finished query is
// recorded once, by ObserveQuery.
type QueryMetrics struct {
	Queries     *Counter      // topk_queries_total
	Latency     *LogHistogram // topk_query_latency_seconds (observed in ns)
	IOs         *LogHistogram // topk_query_ios
	Rounds      *LogHistogram // topk_t2_rounds
	Hits        *Counter      // topk_cache_hits_total
	Misses      *Counter      // topk_cache_misses_total
	Flushes     *Counter      // topk_flushes_total
	Rebuilds    *Counter      // topk_rebuilds_total
	SlowQueries *Counter      // topk_slow_queries_total
	Items       *Gauge        // topk_index_items
	Levels      *Gauge        // topk_overlay_levels

	// Request-lifecycle counters: how queries run under a QueryCtx ended.
	BudgetAborts     *Counter // topk_budget_aborts_total
	DeadlineExceeded *Counter // topk_deadline_exceeded_total
	Degraded         *Counter // topk_degraded_results_total

	// Per-operation update-cost attribution: one observation per
	// Insert/Delete with the exact I/O delta of that operation, so the
	// amortized picture (p50 near the cheap common case) and the rebuild
	// spikes (p999/max) are both visible. Flush and rebuild spikes get
	// their own series rather than being averaged into UpdateIOs' median.
	UpdateIOs  *LogHistogram // topk_update_ios
	FlushIOs   *LogHistogram // topk_flush_ios
	RebuildIOs *LogHistogram // topk_rebuild_ios

	// PolicyBuffered maintenance series. Partial rebuilds replace the
	// logarithmic policy's global rebuilds, so they get the same
	// count-plus-spike treatment; the run gauges expose how much merge
	// debt the tiered ladder is currently carrying.
	PartialRebuilds   *Counter      // topk_partial_rebuilds_total
	PartialRebuildIOs *LogHistogram // topk_partial_rebuild_ios
	BufferedRuns      *Gauge        // topk_overlay_buffered_runs
	BufferedItems     *Gauge        // topk_overlay_buffered_items

	// Phases attributes each query's depth-0 span I/Os to a per-phase
	// summary series (topk_phase_ios).
	Phases *PhaseIOs
}

// NewQueryMetrics registers the standard bundle under the given index
// label plus any extra constant labels. Instances sharing a Registry
// must differ in at least one label (the registry panics on duplicate
// series).
func NewQueryMetrics(r *Registry, index string, extra ...Label) *QueryMetrics {
	ls := append([]Label{{Key: "index", Value: index}}, extra...)
	return &QueryMetrics{
		Queries: r.NewCounter("topk_queries_total",
			"Top-k queries served.", ls...),
		Latency: r.NewLogHistogram("topk_query_latency_seconds",
			"Wall-clock latency per top-k query (log-bucketed summary, ≤3.2% relative error).",
			1e9, ls...),
		IOs: r.NewLogHistogram("topk_query_ios",
			"Counted EM I/Os (reads+writes) per top-k query (log-bucketed summary).", 1, ls...),
		Rounds: r.NewLogHistogram("topk_t2_rounds",
			"Theorem 2 sampling rounds per query (Lemma 3 predicts a geometric tail).", 1, ls...),
		Hits: r.NewCounter("topk_cache_hits_total",
			"EM block touches served from the memory cache.", ls...),
		Misses: r.NewCounter("topk_cache_misses_total",
			"EM block touches that cost a read I/O.", ls...),
		Flushes: r.NewCounter("topk_flushes_total",
			"Logarithmic-method tail flushes into the overlay ladder.", ls...),
		Rebuilds: r.NewCounter("topk_rebuilds_total",
			"Full structure rebuilds (overlay compaction or Theorem 2 epoch).", ls...),
		SlowQueries: r.NewCounter("topk_slow_queries_total",
			"Queries whose I/O count crossed the slow-query threshold.", ls...),
		Items: r.NewGauge("topk_index_items",
			"Live items currently indexed.", ls...),
		Levels: r.NewGauge("topk_overlay_levels",
			"Occupied levels in the dynamic overlay ladder (0 for static indexes).", ls...),
		BudgetAborts: r.NewCounter("topk_budget_aborts_total",
			"Queries aborted because they exceeded their I/O budget.", ls...),
		DeadlineExceeded: r.NewCounter("topk_deadline_exceeded_total",
			"Queries aborted because they blew their wall-clock deadline.", ls...),
		Degraded: r.NewCounter("topk_degraded_results_total",
			"Aborted queries served the documented Max (top-1) fallback.", ls...),
		UpdateIOs: r.NewLogHistogram("topk_update_ios",
			"EM I/Os per Insert/Delete operation (per-op amortized-cost attribution).",
			1, ls...),
		FlushIOs: r.NewLogHistogram("topk_flush_ios",
			"EM I/Os per overlay tail flush (update-cost spike series).", 1, ls...),
		RebuildIOs: r.NewLogHistogram("topk_rebuild_ios",
			"EM I/Os per full structure rebuild (update-cost spike series).", 1, ls...),
		PartialRebuilds: r.NewCounter("topk_partial_rebuilds_total",
			"Weight-balanced partial rebuilds of single overlay runs (buffered policy).", ls...),
		PartialRebuildIOs: r.NewLogHistogram("topk_partial_rebuild_ios",
			"EM I/Os per partial rebuild (update-cost spike series, buffered policy).", 1, ls...),
		BufferedRuns: r.NewGauge("topk_overlay_buffered_runs",
			"Pending un-cascaded runs in the buffered policy's tiered ladder.", ls...),
		BufferedItems: r.NewGauge("topk_overlay_buffered_items",
			"Items held in pending buffered runs awaiting a cascade merge.", ls...),
		Phases: &PhaseIOs{r: r, labels: ls, byName: make(map[string]*LogHistogram)},
	}
}

// ObserveQuery records one finished query: its count and wall-clock
// latency, its exact I/O and cache-hit deltas from st, the Theorem 2
// round count of its trace (when it ran any rounds), and each depth-0
// span's I/Os against its phase. A query observed without a trace (the
// shared single-query path) counts everywhere except rounds and phases.
func (m *QueryMetrics) ObserveQuery(d time.Duration, st em.Stats, events []em.TraceEvent) {
	m.Queries.Inc()
	m.Latency.Observe(d.Nanoseconds())
	m.IOs.Observe(st.IOs())
	m.Hits.Add(st.Hits)
	m.Misses.Add(st.Reads)
	if r := CountRounds(events); r > 0 {
		m.Rounds.Observe(int64(r))
	}
	for _, ev := range events {
		if ev.Depth == 0 {
			m.Phases.Observe(ev.Phase, ev.IOs())
		}
	}
}

// PhaseIOs lazily registers one topk_phase_ios summary per observed span
// phase, labelled {index,...,phase}, so per problem × phase × shard I/O
// quantiles come out of one scrape. Registration happens at most once per
// phase name; observation is a read-locked map hit plus a lock-free
// LogHistogram update.
type PhaseIOs struct {
	r      *Registry
	labels []Label
	mu     sync.RWMutex
	byName map[string]*LogHistogram
}

// Observe records ios I/Os attributed to phase.
func (p *PhaseIOs) Observe(phase string, ios int64) {
	p.mu.RLock()
	h := p.byName[phase]
	p.mu.RUnlock()
	if h == nil {
		p.mu.Lock()
		h = p.byName[phase]
		if h == nil {
			ls := append(p.labels[:len(p.labels):len(p.labels)], Label{Key: "phase", Value: phase})
			h = p.r.NewLogHistogram("topk_phase_ios",
				"EM I/Os per query attributed to one span phase (log-bucketed summary).",
				1, ls...)
			p.byName[phase] = h
		}
		p.mu.Unlock()
	}
	h.Observe(ios)
}

// Collector is the em.TraceSink of an index with metrics. The tracker
// delivers it the spans completed outside any query view, and it counts
// the structural maintenance among them — flushes, rebuilds and partial
// rebuilds — with each one's I/O delta in its spike series. Queries are
// not its business: each finished query reaches the bundle once,
// through ObserveQuery.
type Collector struct {
	M *QueryMetrics
}

var _ em.TraceSink = (*Collector)(nil)

// Event counts one maintenance span; every other span is ignored.
func (c *Collector) Event(ev em.TraceEvent) {
	switch {
	case strings.HasSuffix(ev.Phase, ".flush"):
		c.M.Flushes.Inc()
		c.M.FlushIOs.Observe(ev.IOs())
	case strings.HasSuffix(ev.Phase, ".rebuild"):
		c.M.Rebuilds.Inc()
		c.M.RebuildIOs.Observe(ev.IOs())
	case strings.HasSuffix(ev.Phase, ".partial"):
		c.M.PartialRebuilds.Inc()
		c.M.PartialRebuildIOs.Observe(ev.IOs())
	}
}

// CountRounds returns the number of Theorem 2 sampling rounds recorded
// in a query trace (span phases prefixed "t2.round").
func CountRounds(events []em.TraceEvent) int {
	n := 0
	for _, ev := range events {
		if strings.HasPrefix(ev.Phase, "t2.round") {
			n++
		}
	}
	return n
}
