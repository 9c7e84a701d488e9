package topk

import (
	"fmt"
	"io"
	"math"

	"topk/internal/core"
	"topk/internal/dynamic"
	"topk/internal/em"
)

// This file is the problem-descriptor engine behind every index facade.
// The paper's reductions are black-box generic in the underlying problem
// (Theorems 1–2): everything an index needs beyond the reduction itself is
// a small bundle of problem-specific ingredients. A problem value captures
// that bundle once, and the generic engine implements construction,
// queries, updates, batching, stats, and metrics exactly once on top of
// it. The eight exported index types are thin typed wrappers around an
// engine; adding a ninth problem is a descriptor plus such a wrapper (see
// registry.go, whose consumers pick new problems up automatically).

// problem describes one top-k problem to the engine: Q is the predicate
// (query) type, V the value type the internal black boxes index, and It
// the exported item type carried through the facade (geometry + weight +
// user payload).
type problem[Q, V, It any] struct {
	// name labels the problem in metrics, slow-log entries, and the
	// registry ("interval", "range", …).
	name string
	// match decides whether a value satisfies a predicate — the paper's
	// q(D) membership test, used by the reductions' brute-force fallbacks.
	match core.MatchFunc[Q, V]
	// lambda is the problem's shallowness constant λ for Theorem 1's
	// core-set sizing (Lemma 2).
	lambda float64
	// pri and max build the prioritized-reporting and max-reporting black
	// boxes the reductions consume (the paper's P and M structures).
	pri func(tr *em.Tracker) core.PrioritizedFactory[Q, V]
	max func(tr *em.Tracker) core.MaxFactory[Q, V]
	// dynPri/dynMax, when non-nil, provide updatable black boxes: the
	// Expected reduction is then built in its native dynamic form
	// (Theorem 2's update path) so the index is updatable even without
	// WithUpdates. Set for interval stabbing and 1D range reporting.
	dynPri func(tr *em.Tracker) core.DynamicPrioritizedFactory[Q, V]
	dynMax func(tr *em.Tracker) core.DynamicMaxFactory[Q, V]
	// validate checks one item's geometry (NaN coordinates, malformed
	// extents, dimension mismatches). The engine routes construction and
	// Insert through it, so both paths accept exactly the same items;
	// weight checks (finite, distinct) are the engine's own.
	validate func(It) error
	// weight extracts the item's weight, the unique key of the
	// weight→item map backing payload lookups and Delete.
	weight func(It) float64
	// toCore converts an item to the core representation handed to the
	// black boxes (copying or lifting geometry as needed).
	toCore func(It) core.Item[V]
	// fromCore rebuilds an exported item from a core item returned by a
	// query: geometry and weight come from the core item, the payload
	// from stored (the engine's weight-keyed copy of the original).
	fromCore func(ci core.Item[V], stored It) It
	// describe renders a query for the slow-query log. Only invoked when
	// an entry actually fires.
	describe func(q Q, k int) string
	// dim is the ambient dimension of dimension-parameterized problems
	// (ortho, circular, halfspace), recorded in snapshot headers so a
	// restore can rebuild the descriptor; 0 for fixed-dimension problems.
	dim int
}

// engine is the problem-independent index: one instance per facade value.
// It owns the EM tracker, the reduction-built top-k structure, the
// prioritized accessor, observability state, and the weight→item map.
type engine[Q, V, It any] struct {
	p       problem[Q, V, It]
	opts    Options
	tracker *em.Tracker
	ob      *indexObs // nil when observability is off
	topk    core.TopK[Q, V]
	dyn     updatableTopK[Q, V] // non-nil when updatable
	pri     core.Prioritized[Q, V]
	src     []It // retained for Items() on static reductions
	data    map[float64]It
	n       int
}

// updatableTopK is the common surface of the two dynamic engines an index
// can sit on: Theorem 2's native dynamic reduction (*core.Expected) and
// the dynamization overlay (*dynamic.Overlay).
type updatableTopK[Q, V any] interface {
	core.TopK[Q, V]
	Insert(core.Item[V]) error
	DeleteWeight(w float64) bool
	Items() []core.Item[V]
}

// batchTopK is the optional bulk-update surface of a dynamic engine.
// The overlay implements it — one sorted-merge flush per batch instead
// of one tail pass per item, and one maintenance sweep per delete
// batch. The native Theorem 2 structure does not; its per-item path is
// already its native cost, so the engine falls back to a loop there.
type batchTopK[V any] interface {
	InsertBatch([]core.Item[V]) error
	DeleteBatch([]float64) int
}

// validateItem runs the problem's geometry checks plus the engine's
// weight-finiteness check: the first half of admit, and on its own the
// check a snapshot restore applies to tombstoned overlay items, whose
// weights may be live again elsewhere.
func (e *engine[Q, V, It]) validateItem(it It) error {
	if err := e.p.validate(it); err != nil {
		return err
	}
	if w := e.p.weight(it); math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("topk: non-finite weight %v", w)
	}
	return nil
}

// admit is the one gate every item passes on its way into the engine —
// construction, Insert, InsertBatch (a sharded index's too, run on each
// item's home shard) and a snapshot restore's live overlay items — so
// every path accepts exactly the same items and rejects them with the
// same error: validateItem, then a weight neither live here nor already
// admitted into the same batch. pending is that batch's weight set (nil
// outside a batch); admit records the item's weight there and returns it.
func (e *engine[Q, V, It]) admit(it It, pending map[float64]struct{}) (float64, error) {
	if err := e.validateItem(it); err != nil {
		return 0, err
	}
	w := e.p.weight(it)
	_, live := e.data[w]
	_, queued := pending[w]
	if live || queued {
		return 0, fmt.Errorf("topk: duplicate weight %v", w)
	}
	if pending != nil {
		pending[w] = struct{}{}
	}
	return w, nil
}

// newEngine builds an index that is one engine: it validates items,
// builds the reduction selected by opts, and gives the engine an
// observability pipeline of its own. Construction is deterministic given
// the same items, options, and seed.
func newEngine[Q, V, It any](p problem[Q, V, It], items []It, opts []Option) (*engine[Q, V, It], error) {
	e, err := buildEngine(p, items, applyOptions(opts))
	if err != nil {
		return nil, err
	}
	return e.standalone(), nil
}

// buildEngine validates items and builds the reduction selected by o,
// with no observability attached: the caller attaches the engine to its
// own pipeline (standalone) or to its sharded index's (observe).
func buildEngine[Q, V, It any](p problem[Q, V, It], items []It, o Options) (*engine[Q, V, It], error) {
	e := &engine[Q, V, It]{p: p, opts: o, tracker: o.newTracker()}
	if err := e.init(items); err != nil {
		return nil, err
	}
	return e, nil
}

// observe attaches the engine to an index's observability pipeline under
// a shard label ("" for an index that is one engine). Hooks attach after
// construction so build-time I/Os don't pollute query metrics.
func (e *engine[Q, V, It]) observe(ob *indexObs, shard string) {
	e.ob = ob.forEngine(e.tracker, shard)
	e.ob.observeShape(e.n, e.dyn)
}

// standalone attaches the engine to a pipeline of its own, built from
// its options, and returns it.
func (e *engine[Q, V, It]) standalone() *engine[Q, V, It] {
	e.observe(newIndexObs(e.p.name, e.opts), "")
	return e
}

// itemError is a build's rejection of the item at index i of the items
// it was given. A sharded build rewrites i from the item's place in its
// shard's bucket to its place in the caller's items.
type itemError struct {
	i   int
	err error
}

func (e *itemError) Error() string { return fmt.Sprintf("item %d: %v", e.i, e.err) }
func (e *itemError) Unwrap() error { return e.err }

// init validates items and builds the reduction on the engine's tracker —
// the construction body shared by buildEngine and the snapshot restore
// path (which wraps it in em.Tracker.RestoreAccounting).
func (e *engine[Q, V, It]) init(items []It) error {
	p, o, tracker := e.p, e.opts, e.tracker
	e.n = len(items)

	cores := make([]core.Item[V], len(items))
	e.data = make(map[float64]It, len(items))
	for i, it := range items {
		w, err := e.admit(it, nil)
		if err != nil {
			return &itemError{i: i, err: err}
		}
		e.data[w] = it
		cores[i] = p.toCore(it)
	}

	// The Expected reduction is built in its dynamic form when the problem
	// ships dynamic black boxes (Theorem 2's native update path); any
	// other build becomes updatable through the logarithmic-method overlay
	// when WithUpdates is set, and is static otherwise.
	switch {
	case o.reduction == Expected && p.dynPri != nil:
		dyn, err := core.NewDynamicExpected(cores, p.match, p.dynPri(tracker), p.dynMax(tracker),
			core.ExpectedOptions{B: o.blockSize, Seed: o.seed, Tracker: tracker})
		if err != nil {
			return err
		}
		e.topk, e.dyn = dyn, dyn
	case o.updates:
		dyn, err := newOverlay(cores, p.match, p.pri(tracker), p.max(tracker), p.lambda, o, tracker)
		if err != nil {
			return err
		}
		e.topk, e.dyn = dyn, dyn
	default:
		t, err := buildTopK(cores, p.match, p.pri(tracker), p.max(tracker), p.lambda, o, tracker)
		if err != nil {
			return err
		}
		e.topk = t
		e.src = append([]It(nil), items...)
	}

	// Direct prioritized access shares the reduction's own black box on D
	// rather than building a duplicate.
	e.pri = core.PrioritizedOf(e.topk)
	return nil
}

// Len returns the number of live items.
func (e *engine[Q, V, It]) Len() int { return e.n }

// clampK bounds a requested k by the live count, which no answer
// exceeds. Reductions size buffers by k, so an unclamped k of 1<<40 would
// end the process on an allocation that recover cannot catch.
func (e *engine[Q, V, It]) clampK(k int) int { return min(k, e.n) }

// wrap rebuilds the exported item for a core query result.
func (e *engine[Q, V, It]) wrap(ci core.Item[V]) It {
	return e.p.fromCore(ci, e.data[ci.Weight])
}

// wrapAll rebuilds the exported items of a core query result.
func (e *engine[Q, V, It]) wrapAll(res []core.Item[V]) []It {
	out := make([]It, len(res))
	for i, ci := range res {
		out[i] = e.wrap(ci)
	}
	return out
}

// TopK returns the k heaviest items satisfying q, heaviest first.
func (e *engine[Q, V, It]) TopK(q Q, k int) []It {
	t0, before := e.ob.start()
	res := e.topk.TopK(nil, q, e.clampK(k))
	e.ob.done(t0, before, func() string { return e.p.describe(q, k) })
	return e.wrapAll(res)
}

// ReportAbove streams every item satisfying q with weight ≥ tau (in
// unspecified order); return false from visit to stop early. This is the
// underlying prioritized query.
func (e *engine[Q, V, It]) ReportAbove(q Q, tau float64, visit func(It) bool) {
	e.pri.ReportAbove(nil, q, tau, func(ci core.Item[V]) bool {
		return visit(e.wrap(ci))
	})
}

// Max returns the heaviest item satisfying q (a top-1 query).
func (e *engine[Q, V, It]) Max(q Q) (It, bool) {
	res := e.topk.TopK(nil, q, 1)
	if len(res) == 0 {
		var zero It
		return zero, false
	}
	return e.wrap(res[0]), true
}

// Insert adds an item to an updatable engine, after the same admission
// gate as construction.
func (e *engine[Q, V, It]) Insert(it It) error {
	if e.dyn == nil {
		return errStatic(e.opts.reduction)
	}
	w, err := e.admit(it, nil)
	if err != nil {
		return err
	}
	before := e.tracker.Stats()
	if err := e.dyn.Insert(e.p.toCore(it)); err != nil {
		return err
	}
	e.ob.observeUpdate(e.tracker.Stats().Sub(before))
	e.data[w] = it
	e.n++
	e.ob.observeShape(e.n, e.dyn)
	return nil
}

// InsertBatch adds a batch of items to an updatable engine in one
// maintenance round. Every item passes the admission gate first, in batch
// order — geometry, weight finiteness, uniqueness against the live set
// and within the batch — and a rejected batch inserts nothing.
func (e *engine[Q, V, It]) InsertBatch(items []It) error {
	if e.dyn == nil {
		return errStatic(e.opts.reduction)
	}
	pending := make(map[float64]struct{}, len(items))
	for _, it := range items {
		if _, err := e.admit(it, pending); err != nil {
			return err
		}
	}
	return e.load(items)
}

// load inserts a batch that has passed admission. On the overlay it is
// bulk-loaded with one sorted-merge flush instead of len(items)
// individual tail passes; the native structure takes it item by item.
func (e *engine[Q, V, It]) load(items []It) error {
	if len(items) == 0 {
		return nil
	}
	cores := make([]core.Item[V], len(items))
	for i, it := range items {
		cores[i] = e.p.toCore(it)
	}
	before := e.tracker.Stats()
	if b, ok := e.dyn.(batchTopK[V]); ok {
		if err := b.InsertBatch(cores); err != nil {
			return err
		}
	} else {
		for _, ci := range cores {
			if err := e.dyn.Insert(ci); err != nil {
				return err
			}
		}
	}
	e.ob.observeUpdate(e.tracker.Stats().Sub(before))
	for _, it := range items {
		e.data[e.p.weight(it)] = it
	}
	e.n += len(items)
	e.ob.observeShape(e.n, e.dyn)
	return nil
}

// Delete removes the item with the given weight, reporting whether it was
// present.
func (e *engine[Q, V, It]) Delete(weight float64) (bool, error) {
	if e.dyn == nil {
		return false, errStatic(e.opts.reduction)
	}
	before := e.tracker.Stats()
	if !e.dyn.DeleteWeight(weight) {
		return false, nil
	}
	e.ob.observeUpdate(e.tracker.Stats().Sub(before))
	delete(e.data, weight)
	e.n--
	e.ob.observeShape(e.n, e.dyn)
	return true, nil
}

// DeleteBatch removes the items with the given weights, returning how
// many were present. Weights absent from the index (or repeated in the
// batch) count nothing and delete nothing. On the overlay, structural
// maintenance — dead-level compaction — runs once after the whole
// batch instead of after every delete.
func (e *engine[Q, V, It]) DeleteBatch(weights []float64) (int, error) {
	if e.dyn == nil {
		return 0, errStatic(e.opts.reduction)
	}
	before := e.tracker.Stats()
	found := 0
	if b, ok := e.dyn.(batchTopK[V]); ok {
		found = b.DeleteBatch(weights)
	} else {
		for _, w := range weights {
			if e.dyn.DeleteWeight(w) {
				found++
			}
		}
	}
	if found == 0 {
		return 0, nil
	}
	e.ob.observeUpdate(e.tracker.Stats().Sub(before))
	for _, w := range weights {
		if _, ok := e.data[w]; ok {
			delete(e.data, w)
			e.n--
		}
	}
	e.ob.observeShape(e.n, e.dyn)
	return found, nil
}

// Items returns a snapshot of the live items in unspecified order — the
// full state needed to persist and rebuild the index.
func (e *engine[Q, V, It]) Items() []It {
	if e.dyn == nil {
		return append([]It(nil), e.src...)
	}
	live := e.dyn.Items()
	out := make([]It, 0, len(live))
	for _, ci := range live {
		out = append(out, e.wrap(ci))
	}
	return out
}

// Stats returns the engine's simulated I/O counters and space usage.
func (e *engine[Q, V, It]) Stats() Stats { return statsOf(e.tracker, e.opts.reduction) }

// ResetStats zeroes the I/O counters (space is preserved).
func (e *engine[Q, V, It]) ResetStats() { e.tracker.ResetCounters() }

// QueryBatch answers one top-k query per element of qs on a bounded pool
// of `parallelism` worker goroutines, each query inside its own tracker
// view (see batch.go for the full contract).
func (e *engine[Q, V, It]) QueryBatch(qs []Q, k int, parallelism int) []BatchResult[It] {
	return e.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract: each
// query runs with ctx's I/O budget and deadline armed on its view, and a
// query that exceeds either carries a typed Outcome/Err (plus the Max
// fallback when ctx.DegradeToMax is set) instead of panicking or
// over-serving. A zero ctx makes it exactly QueryBatch.
func (e *engine[Q, V, It]) QueryBatchCtx(ctx QueryCtx, qs []Q, k int, parallelism int) []BatchResult[It] {
	kq := e.clampK(k)
	return runBatch(e.tracker, e.ob, qs, parallelism, batchSpec[Q, It]{
		ctx: ctx,
		k:   k,
		// The batch path skips TopK's single-query accounting: the view
		// reports the query exactly and runBatch observes it.
		one: func(v *em.QueryView, q Q) []It { return e.wrapAll(e.topk.TopK(v, q, kq)) },
		max: func(q Q) []It {
			// Raw top-1 on the shared tracker path: bypasses e.Max's
			// single-query observation hooks so the fallback doesn't
			// count as an extra query in the metrics.
			res := e.topk.TopK(nil, q, 1)
			if len(res) == 0 {
				return nil
			}
			return []It{e.wrap(res[0])}
		},
	})
}

// WriteMetrics renders the engine's metrics registry in Prometheus text
// exposition format. It errors unless built WithMetrics.
func (e *engine[Q, V, It]) WriteMetrics(w io.Writer) error { return e.ob.writeMetrics(w) }

// slowQueries returns the engine's slow-query ring, oldest first.
func (e *engine[Q, V, It]) slowQueries() []string { return e.ob.slowQueries() }

// buildTopK wires factories into the selected reduction.
func buildTopK[Q, V any](
	items []core.Item[V],
	match core.MatchFunc[Q, V],
	pf core.PrioritizedFactory[Q, V],
	mf core.MaxFactory[Q, V],
	lambda float64,
	o Options,
	tracker *em.Tracker,
) (core.TopK[Q, V], error) {
	switch o.reduction {
	case WorstCase:
		return core.NewWorstCase(items, match, pf, core.WorstCaseOptions{
			B: o.blockSize, Lambda: lambda, Seed: o.seed, Tracker: tracker,
		})
	case Expected:
		return core.NewExpected(items, match, pf, mf, core.ExpectedOptions{
			B: o.blockSize, Seed: o.seed, Tracker: tracker,
		})
	case BinarySearch:
		return core.NewBaseline(items, pf, tracker)
	case FullScan:
		return core.NewScan(items, match, tracker), nil
	}
	return nil, fmt.Errorf("topk: unknown reduction %v", o.reduction)
}

// newOverlay dynamizes a static reduction with the internal/dynamic
// overlay under the options' maintenance policy: every substructure is
// built by the ordinary reduction constructor for the selected
// reduction, sharing the index tracker so flush, merge, and rebuild
// I/Os show up in Stats.
func newOverlay[Q, V any](
	items []core.Item[V],
	match core.MatchFunc[Q, V],
	pf core.PrioritizedFactory[Q, V],
	mf core.MaxFactory[Q, V],
	lambda float64,
	o Options,
	tracker *em.Tracker,
) (*dynamic.Overlay[Q, V], error) {
	return dynamic.New(items, match, func(sub []core.Item[V]) (core.TopK[Q, V], error) {
		return buildTopK(sub, match, pf, mf, lambda, o, tracker)
	}, dynamic.Options{Tracker: tracker, TailCap: o.blockSize, Policy: o.maintPol.dynPolicy()})
}

// errStatic is the shared "index is static" error for Insert/Delete on an
// index built without an update path.
func errStatic(r Reduction) error {
	return fmt.Errorf("topk: %v index is static; build with WithUpdates() for updates", r)
}

// facade embeds the engine behind every public index type and provides
// the exported methods whose signatures never mention the query type; the
// typed wrappers add the query-shaped surface (TopK, Max, ReportAbove,
// QueryBatch) on top of it. Method promotion keeps each index's exported
// method set exactly what it was when the methods lived on the index.
type facade[Q, V, It any] struct {
	eng *engine[Q, V, It]
}

func newFacade[Q, V, It any](e *engine[Q, V, It]) facade[Q, V, It] {
	return facade[Q, V, It]{eng: e}
}

// Len returns the number of live indexed items.
func (f *facade[Q, V, It]) Len() int { return f.eng.Len() }

// Insert adds an item, applying exactly the validation the constructor
// applies. Natively dynamic builds (interval and range under the Expected
// reduction) always accept updates; every other build is updatable only
// through the logarithmic overlay (WithUpdates) and returns an error
// otherwise.
func (f *facade[Q, V, It]) Insert(item It) error { return f.eng.Insert(item) }

// InsertBatch adds a batch of items in one maintenance round,
// validating the whole batch — geometry, finite weights, uniqueness
// against the live set and within the batch — before inserting
// anything: a rejected batch leaves the index unchanged. On an
// overlay-dynamized build the batch is bulk-loaded with one
// sorted-merge flush, so inserting m items costs strictly less than m
// single Inserts. See Insert for which builds are updatable.
func (f *facade[Q, V, It]) InsertBatch(items []It) error { return f.eng.InsertBatch(items) }

// Delete removes the item with the given weight, reporting whether it was
// present. See Insert for which builds are updatable.
func (f *facade[Q, V, It]) Delete(weight float64) (bool, error) { return f.eng.Delete(weight) }

// DeleteBatch removes the items with the given weights, returning how
// many were present; absent or batch-repeated weights are skipped. On
// an overlay-dynamized build structural maintenance runs once after
// the whole batch. See Insert for which builds are updatable.
func (f *facade[Q, V, It]) DeleteBatch(weights []float64) (int, error) {
	return f.eng.DeleteBatch(weights)
}

// Stats returns the index's simulated I/O counters and space usage.
func (f *facade[Q, V, It]) Stats() Stats { return f.eng.Stats() }

// ResetStats zeroes the I/O counters (space is preserved).
func (f *facade[Q, V, It]) ResetStats() { f.eng.ResetStats() }

// WriteMetrics renders the index's metrics registry in Prometheus text
// exposition format. It errors unless the index was built WithMetrics.
func (f *facade[Q, V, It]) WriteMetrics(w io.Writer) error { return f.eng.WriteMetrics(w) }

// Snapshot writes the index's versioned snapshot stream to w (see
// DESIGN.md §12 for the format). The stream captures the index's full
// logical state — source items, dynamization-overlay levels, tombstones,
// tail, and configuration — and the matching per-problem Restore
// function (RestoreIntervalIndex, …) rebuilds an index that answers
// every query identically, at a restore cost of O(size/B) sequential
// I/Os instead of a rebuild. Snapshot charges that same O(size/B) write
// cost to the index's tracker. It may run concurrently with queries but
// not with Insert or Delete.
func (f *facade[Q, V, It]) Snapshot(w io.Writer) error { return f.eng.Snapshot(w) }
