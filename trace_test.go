package topk

import (
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"topk/internal/wrand"
)

// The tests in this file pin the observability contract across every
// index facade:
//
//  1. sum invariant: a batch query's depth-0 trace spans partition its
//     QueryStats exactly — Reads, Writes, and Hits each sum to the
//     query's own counters (any residual appears as "em.unattributed");
//  2. observer effect: enabling tracing and metrics does not change any
//     per-query I/O count;
//  3. exposition: WriteMetrics emits a parseable Prometheus snapshot
//     containing the topk_query_ios and topk_t2_rounds summaries.

// checkTraces asserts the sum invariant over a batch's results and
// returns the total number of depth-0 events seen.
func checkTraces[R any](t *testing.T, name string, results []BatchResult[R]) int {
	t.Helper()
	events := 0
	for i, r := range results {
		var reads, writes, hits int64
		for _, ev := range r.Trace {
			if ev.Depth != 0 {
				continue
			}
			events++
			reads += ev.Reads
			writes += ev.Writes
			hits += ev.Hits
		}
		if reads != r.Stats.Reads || writes != r.Stats.Writes || hits != r.Stats.Hits {
			t.Fatalf("%s query %d: depth-0 trace sums (r=%d w=%d h=%d) != stats %+v\ntrace: %+v",
				name, i, reads, writes, hits, r.Stats, r.Trace)
		}
		if r.Stats.IOs() > 0 && len(r.Trace) == 0 {
			t.Fatalf("%s query %d: %d IOs but empty trace", name, i, r.Stats.IOs())
		}
	}
	return events
}

// checkMetrics asserts the index's Prometheus snapshot carries the two
// query summaries with at least nq observations on the I/O one.
func checkMetrics(t *testing.T, name string, write func(io.Writer) error, nq int) {
	t.Helper()
	var b strings.Builder
	if err := write(&b); err != nil {
		t.Fatalf("%s: WriteMetrics: %v", name, err)
	}
	out := b.String()
	for _, want := range []string{
		`topk_query_ios{index="` + name + `",quantile="0.99"}`,
		`topk_t2_rounds{index="` + name + `",quantile="0.99"}`,
		"topk_query_ios_count{", "topk_queries_total{",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("%s: metrics missing %q:\n%s", name, want, out)
		}
	}
	if !strings.Contains(out, `index="`+name+`"`) {
		t.Fatalf("%s: metrics missing index label:\n%s", name, out)
	}
	// Every batch query must have been observed into the I/O summary.
	var count string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "topk_query_ios_count{") {
			count = line[strings.LastIndexByte(line, ' ')+1:]
		}
	}
	if want := strconv.Itoa(nq); count != want {
		t.Fatalf("%s: topk_query_ios_count = %s, want %s", name, count, want)
	}
}

// traceOpts is the standard instrumented build used by every sub-test.
func traceOpts(r Reduction, extra ...Option) []Option {
	opts := []Option{WithReduction(r), WithSeed(5), WithTracing(), WithMetrics()}
	return append(opts, extra...)
}

func TestTraceInvariantInterval(t *testing.T) {
	g := wrand.New(201)
	items := genIntervalItems(g, 600)
	ix, err := NewIntervalIndex(items, traceOpts(Expected)...)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 32)
	for i := range xs {
		xs[i] = g.Float64() * 120
	}
	res := ix.QueryBatch(xs, 8, 8)
	if n := checkTraces(t, "interval", res); n == 0 {
		t.Fatal("no depth-0 events recorded")
	}
	checkMetrics(t, "interval", ix.WriteMetrics, len(xs))

	// Traced batch stats must equal untraced ones: the observer-effect
	// guarantee, checked against a plain build of the same index.
	plain, err := NewIntervalIndex(items, WithReduction(Expected), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range plain.QueryBatch(xs, 8, 8) {
		if r.Stats != res[i].Stats {
			t.Fatalf("query %d: traced stats %+v != plain stats %+v", i, res[i].Stats, r.Stats)
		}
	}
}

func TestTraceInvariantRange(t *testing.T) {
	g := wrand.New(202)
	n := 500
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItem1[int], n)
	for i := range items {
		items[i] = PointItem1[int]{Pos: g.Float64() * 100, Weight: ws[i], Data: i}
	}
	ix, err := NewRangeIndex(items, traceOpts(WorstCase)...)
	if err != nil {
		t.Fatal(err)
	}
	spans := make([]Span, 24)
	for i := range spans {
		lo := g.Float64() * 100
		spans[i] = Span{Lo: lo, Hi: lo + g.Float64()*30}
	}
	res := ix.QueryBatch(spans, 6, 8)
	checkTraces(t, "range", res)
	checkMetrics(t, "range", ix.WriteMetrics, len(spans))

	// WorstCase traces must attribute cost to Theorem 1 phases.
	sawT1 := false
	for _, r := range res {
		for _, ev := range r.Trace {
			if strings.HasPrefix(ev.Phase, "t1.") {
				sawT1 = true
			}
		}
	}
	if !sawT1 {
		t.Fatal("no t1.* phases in WorstCase traces")
	}
}

func TestTraceInvariantOrtho(t *testing.T) {
	g := wrand.New(203)
	const n, d = 350, 2
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItemN[int], n)
	for i := range items {
		items[i] = PointItemN[int]{Coords: []float64{g.Float64() * 100, g.Float64() * 100}, Weight: ws[i], Data: i}
	}
	ix, err := NewOrthoIndex(items, d, traceOpts(Expected)...)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]BoxQuery, 20)
	for i := range qs {
		lo := []float64{g.Float64() * 70, g.Float64() * 70}
		qs[i] = BoxQuery{Lo: lo, Hi: []float64{lo[0] + 20, lo[1] + 20}}
	}
	res, err := ix.QueryBatch(qs, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkTraces(t, "ortho", res)
	checkMetrics(t, "ortho", ix.WriteMetrics, len(qs))
}

func TestTraceInvariantEnclosureOverlay(t *testing.T) {
	g := wrand.New(204)
	n := 400
	ws := g.UniqueFloats(n, 1e6)
	items := make([]RectItem[int], n)
	for i := range items {
		x1, y1 := g.Float64()*100, g.Float64()*100
		items[i] = RectItem[int]{X1: x1, X2: x1 + g.ExpFloat64()*12, Y1: y1, Y2: y1 + g.ExpFloat64()*12, Weight: ws[i], Data: i}
	}
	// The overlay build exercises the dyn.* span family on the query path.
	ix, err := NewEnclosureIndex(items, traceOpts(WorstCase, WithUpdates())...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x1, y1 := g.Float64()*100, g.Float64()*100
		it := RectItem[int]{X1: x1, X2: x1 + 5, Y1: y1, Y2: y1 + 5, Weight: 2e6 + float64(i), Data: i}
		if err := ix.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([]PointQuery, 20)
	for i := range qs {
		qs[i] = PointQuery{X: g.Float64() * 120, Y: g.Float64() * 120}
	}
	res := ix.QueryBatch(qs, 6, 8)
	checkTraces(t, "enclosure", res)
	checkMetrics(t, "enclosure", ix.WriteMetrics, len(qs))

	sawDyn := false
	for _, r := range res {
		for _, ev := range r.Trace {
			if strings.HasPrefix(ev.Phase, "dyn.") {
				sawDyn = true
			}
		}
	}
	if !sawDyn {
		t.Fatal("no dyn.* phases in overlay traces")
	}
}

func TestTraceInvariantDominance(t *testing.T) {
	g := wrand.New(205)
	items := genDomItems(g, 450)
	ix, err := NewDominanceIndex(items, traceOpts(Expected)...)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]CornerQuery, 20)
	for i := range qs {
		qs[i] = CornerQuery{X: g.Float64() * 110, Y: g.Float64() * 110, Z: g.Float64() * 110}
	}
	res := ix.QueryBatch(qs, 6, 8)
	checkTraces(t, "dominance", res)
	checkMetrics(t, "dominance", ix.WriteMetrics, len(qs))
}

func TestTraceInvariantHalfplane(t *testing.T) {
	g := wrand.New(206)
	n := 400
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItem2[int], n)
	for i := range items {
		items[i] = PointItem2[int]{X: g.NormFloat64() * 10, Y: g.NormFloat64() * 10, Weight: ws[i], Data: i}
	}
	ix, err := NewHalfplaneIndex(items, traceOpts(Expected)...)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]HalfplaneQuery, 20)
	for i := range qs {
		theta := g.Float64() * 2 * math.Pi
		qs[i] = HalfplaneQuery{A: math.Cos(theta), B: math.Sin(theta), C: g.NormFloat64() * 8}
	}
	res := ix.QueryBatch(qs, 6, 8)
	checkTraces(t, "halfplane", res)
	checkMetrics(t, "halfplane", ix.WriteMetrics, len(qs))
}

func TestTraceInvariantHalfspace(t *testing.T) {
	g := wrand.New(207)
	const n, d = 300, 3
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItemN[int], n)
	for i := range items {
		items[i] = PointItemN[int]{
			Coords: []float64{g.NormFloat64() * 10, g.NormFloat64() * 10, g.NormFloat64() * 10},
			Weight: ws[i], Data: i,
		}
	}
	ix, err := NewHalfspaceIndex(items, d, traceOpts(WorstCase)...)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]HalfspaceQuery, 16)
	for i := range qs {
		qs[i] = HalfspaceQuery{A: []float64{g.NormFloat64(), g.NormFloat64(), g.NormFloat64()}, C: g.NormFloat64() * 5}
	}
	res := ix.QueryBatch(qs, 5, 8)
	checkTraces(t, "halfspace", res)
	checkMetrics(t, "halfspace", ix.WriteMetrics, len(qs))
}

func TestTraceInvariantCircular(t *testing.T) {
	g := wrand.New(208)
	const n, d = 300, 2
	ws := g.UniqueFloats(n, 1e6)
	items := make([]PointItemN[int], n)
	for i := range items {
		items[i] = PointItemN[int]{Coords: []float64{g.NormFloat64() * 10, g.NormFloat64() * 10}, Weight: ws[i], Data: i}
	}
	ix, err := NewCircularIndex(items, d, traceOpts(Expected)...)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]BallQuery, 16)
	for i := range qs {
		qs[i] = BallQuery{
			Center: []float64{g.NormFloat64() * 10, g.NormFloat64() * 10},
			Radius: 3 + g.Float64()*12,
		}
	}
	res := ix.QueryBatch(qs, 5, 8)
	checkTraces(t, "circular", res)
	checkMetrics(t, "circular", ix.WriteMetrics, len(qs))
}

func TestTracingOffNoTraces(t *testing.T) {
	g := wrand.New(209)
	items := genIntervalItems(g, 200)
	ix, err := NewIntervalIndex(items, WithReduction(Expected), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ix.QueryBatch([]float64{10, 50, 90}, 5, 2) {
		if r.Trace != nil {
			t.Fatalf("query %d: trace present without WithTracing: %+v", i, r.Trace)
		}
	}
	var b strings.Builder
	if err := ix.WriteMetrics(&b); err == nil {
		t.Fatal("WriteMetrics succeeded without WithMetrics")
	}
}

func TestSingleQueryMetricsAndSlowLog(t *testing.T) {
	g := wrand.New(210)
	items := genIntervalItems(g, 400)
	var slow strings.Builder
	ix, err := NewIntervalIndex(items,
		WithReduction(Expected), WithSeed(5),
		WithTracing(), WithMetrics(), WithSlowQueryLog(&slow, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Direct (shared-path) queries must count into the registry too.
	for i := 0; i < 10; i++ {
		ix.TopK(g.Float64()*120, 5)
	}
	var b strings.Builder
	if err := ix.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `topk_queries_total{index="interval"} 10`) {
		t.Fatalf("direct queries not counted:\n%s", out)
	}
	// Threshold 1 I/O: the cold-cache batch path must log slow entries
	// with their full trace.
	ix.QueryBatch([]float64{10, 50, 90}, 5, 2)
	logged := slow.String()
	if !strings.Contains(logged, "slow query index=interval") {
		t.Fatalf("no slow-query entries logged:\n%q", logged)
	}
	if !strings.Contains(logged, "t2.") && !strings.Contains(logged, "em.unattributed") {
		t.Fatalf("slow-query entry carries no trace:\n%q", logged)
	}
	b.Reset()
	if err := ix.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "topk_slow_queries_total") {
		t.Fatal("slow query counter missing from metrics")
	}
}

func TestQueryStatsHitRate(t *testing.T) {
	s := QueryStats{Reads: 3, Writes: 2, Hits: 7}
	if got := s.IOs(); got != 5 {
		t.Fatalf("IOs = %d, want 5 (hits must be excluded)", got)
	}
	if got, want := s.HitRate(), 0.7; got != want {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}
	if got := (QueryStats{}).HitRate(); got != 0 {
		t.Fatalf("empty HitRate = %v, want 0", got)
	}
}
