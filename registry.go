package topk

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"topk/internal/circular"
	"topk/internal/dominance"
	"topk/internal/enclosure"
	"topk/internal/halfspace"
	"topk/internal/interval"
	"topk/internal/orthorange"
	"topk/internal/rangerep"
	"topk/internal/snap"
	"topk/internal/wrand"
)

// This file is the problem registry: every shipped problem is described
// once as a ProblemSpec, and generic consumers — the serving binary
// (cmd/topk-serve), the snapshot tool (cmd/topk-snap), the benchmark
// harness (internal/bench), and the conformance suite
// (conformance_test.go, snapshot_test.go) — iterate RegisteredProblems
// instead of hand-maintaining per-problem switches. Adding a ninth
// problem to the library is a descriptor (engine.go), a thin typed
// facade, and one ProblemSpec here; the serving surface, persistence,
// the registry benchmark, and the conformance tests pick it up with no
// further edits.

// ServedItem is one query answer in type-erased form: the item's weight
// (its unique identity across the index) plus a short human rendering of
// its geometry. Its JSON form is the item shape of every /query
// response, from topk-serve and from the cluster coordinator alike.
type ServedItem struct {
	Weight float64 `json:"weight"`
	Label  string  `json:"label,omitempty"`
}

// Served is a type-erased view of one built index, sufficient to drive
// it without knowing its query or item types. Queries are opaque values
// produced by GenQueries or DecodeQuery; passing a query of the wrong
// problem's type panics, like any interface misuse.
type Served interface {
	// Problem returns the registry name of the problem being served.
	Problem() string
	// Shards returns the number of partitions serving the index: 1 for a
	// plain index (Build), the requested count for BuildSharded.
	Shards() int
	// ShardSizes returns the live item count of each partition — one
	// entry per shard, a single entry for a plain index.
	ShardSizes() []int
	// Len returns the number of live items.
	Len() int
	// GenQueries returns m deterministic queries derived from seed.
	GenQueries(m int, seed uint64) []any
	// DecodeQuery parses one JSON-shaped query (the /query wire format;
	// see ProblemSpec.QueryShape for the expected shape).
	DecodeQuery(raw json.RawMessage) (any, error)
	// DecodeItem parses one JSON-shaped item (the /ingest wire format;
	// see ProblemSpec.ItemShape for the expected shape). The decoded
	// value feeds InsertBatch; geometry and weight validation happen
	// there, through the same gate as every other insert path.
	DecodeItem(raw json.RawMessage) (any, error)
	// TopK returns the k heaviest items satisfying q, heaviest first.
	TopK(q any, k int) []ServedItem
	// Max returns the heaviest item satisfying q (a top-1 query).
	Max(q any) (ServedItem, bool)
	// ReportAbove returns every item satisfying q with weight ≥ tau, in
	// unspecified order.
	ReportAbove(q any, tau float64) []ServedItem
	// Oracle returns every live item satisfying q in descending weight
	// order, computed by an in-memory scan outside the EM model — the
	// ground truth the reductions are checked against.
	Oracle(q any) []ServedItem
	// QueryBatch answers one top-k query per element of qs on the
	// concurrent batch path (see batch.go for the contract).
	QueryBatch(qs []any, k, parallelism int) []BatchResult[ServedItem]
	// QueryBatchCtx is QueryBatch under a request-lifecycle contract
	// (I/O budget, deadline, degradation; see QueryCtx). Per-query
	// Outcome and Err report how each query ended.
	QueryBatchCtx(ctx QueryCtx, qs []any, k, parallelism int) []BatchResult[ServedItem]
	// InsertFresh inserts a deterministically generated valid item whose
	// weight collides with no live item, returning the weight used.
	InsertFresh(seed uint64) (float64, error)
	// InsertInvalid attempts to insert the problem's canonical malformed
	// item; a nil error is a validation bug.
	InsertInvalid() error
	// Delete removes the item with the given weight, reporting whether it
	// was present.
	Delete(weight float64) (bool, error)
	// InsertBatch bulk-inserts a batch of DecodeItem-decoded items in
	// one ingest round: the whole batch is validated before anything is
	// inserted, and on an overlay-dynamized build the accepted batch
	// bulk-loads with one sorted-merge flush (per shard, when sharded).
	InsertBatch(items []any) error
	// DeleteBatch removes the items with the given weights, returning
	// how many were present; absent weights are skipped.
	DeleteBatch(weights []float64) (int, error)
	// Stats returns the index-wide simulated I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters.
	ResetStats()
	// WriteMetrics renders the index's metrics registry in Prometheus
	// text format. It errors unless the index was built WithMetrics.
	WriteMetrics(w io.Writer) error
	// SlowQueries returns the index's slow-query ring, oldest first:
	// the last WithSlowLogKeep entries, every shard's in one sequence.
	// It is nil unless the index was built WithSlowQueryLog.
	SlowQueries() []string
	// Snapshot persists the index into dir: one snapshot file per shard
	// plus a manifest (see DESIGN.md §12). The spec's Restore — or
	// LoadSnapshot, which dispatches on the manifest — rebuilds an index
	// answering every query identically at O(size/B) restore I/Os.
	Snapshot(dir string) error
}

// ProblemSpec is one registry entry: a problem name plus type-erased
// constructors that let generic consumers build and drive the problem's
// index.
type ProblemSpec struct {
	// Name is the problem's registry key, matching the index's metrics
	// label ("interval", "range", "ortho", …).
	Name string
	// Dim is the ambient dimension the registry serves the problem in
	// (0 when the problem has a fixed natural dimension).
	Dim int
	// QueryShape documents the JSON wire shape DecodeQuery accepts.
	QueryShape string
	// ItemShape documents the JSON wire shape DecodeItem accepts — one
	// object per item on the /ingest NDJSON stream.
	ItemShape string
	// WireQueries returns m deterministic JSON-encoded queries derived
	// from seed, in the problem's /query wire shape (DecodeQuery accepts
	// every one of them). This is the workload source for
	// cmd/topk-loadgen, which drives a server over HTTP and never builds
	// an index of its own; the distribution matches Served.GenQueries at
	// equal seed.
	WireQueries func(m int, seed uint64) []json.RawMessage
	// NativeDynamic reports that the Expected reduction updates through
	// Theorem 2's native path, so the index is updatable even without
	// WithUpdates.
	NativeDynamic bool
	// Build constructs the index over a deterministic n-item workload
	// derived from seed.
	Build func(n int, seed uint64, opts ...Option) (Served, error)
	// BuildSharded constructs the index over the same workload as Build,
	// partitioned across the given number of shards (fan-out/merge
	// serving; see shard.go). BuildSharded(n, 1, seed) serves the same
	// items as Build(n, seed) behind a one-shard partition.
	BuildSharded func(n, shards int, seed uint64, opts ...Option) (Served, error)
	// BuildInvalid attempts construction over a small workload containing
	// one malformed item, returning the constructor's error. A nil error
	// is a constructor/Insert validation asymmetry.
	BuildInvalid func(opts ...Option) error
	// Restore rebuilds the index from a snapshot directory written by
	// Served.Snapshot. The structural configuration (reduction, block
	// size, seed, shard count) comes from the snapshot; opts may add
	// runtime options such as WithMetrics or WithTracing.
	Restore func(dir string, opts ...Option) (Served, error)
	// RestoreShard rebuilds exactly one shard of a partitioned snapshot
	// as a standalone one-shard index — the replica-bootstrap hook behind
	// LoadShard. Only the manifest and that shard's file need to exist in
	// dir, so a node ships just the shards it owns.
	RestoreShard func(dir string, shard int, opts ...Option) (Served, error)
	// Reshard rewrites a snapshot directory at a different shard count
	// without touching the indexed items — the bulk shard-shipping
	// transform behind cmd/topk-snap convert.
	Reshard func(srcDir, dstDir string, shards int) error
}

// Updatable describes the spec's update support for human listings.
func (s ProblemSpec) Updatable() string {
	if s.NativeDynamic {
		return "native (Expected reduction); overlay via WithUpdates otherwise"
	}
	return "overlay via WithUpdates"
}

// AllReductions lists every reduction, in the order they appear in the
// paper. Registry consumers iterate it to sweep problem × reduction.
func AllReductions() []Reduction {
	return []Reduction{Expected, WorstCase, BinarySearch, FullScan}
}

// RegisteredProblems returns the specs of every shipped problem, in a
// stable order.
func RegisteredProblems() []ProblemSpec {
	return append([]ProblemSpec(nil), problemRegistry...)
}

// ProblemByName returns the spec registered under name.
func ProblemByName(name string) (ProblemSpec, bool) {
	for _, s := range problemRegistry {
		if s.Name == name {
			return s, true
		}
	}
	return ProblemSpec{}, false
}

// ProblemNames returns the registered problem names, in registry order.
func ProblemNames() []string {
	names := make([]string, len(problemRegistry))
	for i, s := range problemRegistry {
		names[i] = s.Name
	}
	return names
}

// servedEngine is the uniform index surface the served adapter drives —
// satisfied by both a single engine and a sharded partition of engines,
// which is what lets every registry consumer (serving, benchmarks,
// conformance) run shard-aware with no per-problem code.
type servedEngine[Q, It any] interface {
	Len() int
	TopK(q Q, k int) []It
	Max(q Q) (It, bool)
	ReportAbove(q Q, tau float64, visit func(It) bool)
	Items() []It
	QueryBatchCtx(ctx QueryCtx, qs []Q, k int, parallelism int) []BatchResult[It]
	Insert(it It) error
	InsertBatch(items []It) error
	Delete(weight float64) (bool, error)
	DeleteBatch(weights []float64) (int, error)
	Stats() Stats
	ResetStats()
	WriteMetrics(w io.Writer) error
	slowQueries() []string
	hasWeight(w float64) bool
	snapDir(dir string) error
}

func (e *engine[Q, V, It]) hasWeight(w float64) bool { _, ok := e.data[w]; return ok }

func (s *sharded[Q, V, It]) hasWeight(w float64) bool { return s.home(w).hasWeight(w) }

// served adapts one engine — or one sharded group of engines — to the
// type-erased Served interface. The problem-specific residue is the
// problem descriptor, a query generator, two decoders, a label, a
// fresh-item maker, and a canonical invalid item.
type served[Q, V, It any] struct {
	p       problem[Q, V, It]
	eng     servedEngine[Q, It]
	nshards int
	// gen draws one query from the problem's deterministic distribution.
	gen func(g *wrand.RNG) Q
	// decode parses the problem's JSON query shape.
	decode func(raw json.RawMessage) (Q, error)
	// decItem parses the problem's JSON item shape (the ingest wire
	// format); semantic validation is InsertBatch's job.
	decItem func(raw json.RawMessage) (It, error)
	// label renders an item's geometry for ServedItem.
	label func(It) string
	// fresh builds a valid item with the given (pre-checked) weight.
	fresh func(g *wrand.RNG, w float64) It
	// invalid is an item every validation path must reject.
	invalid It
}

func (s *served[Q, V, It]) Problem() string { return s.p.name }
func (s *served[Q, V, It]) Shards() int     { return s.nshards }
func (s *served[Q, V, It]) Len() int        { return s.eng.Len() }

func (s *served[Q, V, It]) ShardSizes() []int {
	if sh, ok := s.eng.(interface{ ShardLens() []int }); ok {
		return sh.ShardLens()
	}
	return []int{s.eng.Len()}
}

func (s *served[Q, V, It]) GenQueries(m int, seed uint64) []any {
	g := wrand.New(seed)
	qs := make([]any, m)
	for i := range qs {
		qs[i] = s.gen(g)
	}
	return qs
}

func (s *served[Q, V, It]) DecodeQuery(raw json.RawMessage) (any, error) {
	q, err := s.decode(raw)
	if err != nil {
		return nil, err
	}
	return q, nil
}

func (s *served[Q, V, It]) DecodeItem(raw json.RawMessage) (any, error) {
	it, err := s.decItem(raw)
	if err != nil {
		return nil, err
	}
	return it, nil
}

func (s *served[Q, V, It]) InsertBatch(items []any) error {
	typed := make([]It, len(items))
	for i, it := range items {
		typed[i] = it.(It)
	}
	return s.eng.InsertBatch(typed)
}

func (s *served[Q, V, It]) DeleteBatch(weights []float64) (int, error) {
	return s.eng.DeleteBatch(weights)
}

func (s *served[Q, V, It]) item(it It) ServedItem {
	return ServedItem{Weight: s.p.weight(it), Label: s.label(it)}
}

func (s *served[Q, V, It]) TopK(q any, k int) []ServedItem {
	res := s.eng.TopK(q.(Q), k)
	out := make([]ServedItem, len(res))
	for i, it := range res {
		out[i] = s.item(it)
	}
	return out
}

func (s *served[Q, V, It]) Max(q any) (ServedItem, bool) {
	it, ok := s.eng.Max(q.(Q))
	if !ok {
		return ServedItem{}, false
	}
	return s.item(it), true
}

func (s *served[Q, V, It]) ReportAbove(q any, tau float64) []ServedItem {
	var out []ServedItem
	s.eng.ReportAbove(q.(Q), tau, func(it It) bool {
		out = append(out, s.item(it))
		return true
	})
	return out
}

func (s *served[Q, V, It]) Oracle(q any) []ServedItem {
	qq := q.(Q)
	var out []ServedItem
	for _, it := range s.eng.Items() {
		if s.p.match(qq, s.p.toCore(it).Value) {
			out = append(out, s.item(it))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}

func (s *served[Q, V, It]) QueryBatch(qs []any, k, parallelism int) []BatchResult[ServedItem] {
	return s.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

func (s *served[Q, V, It]) QueryBatchCtx(ctx QueryCtx, qs []any, k, parallelism int) []BatchResult[ServedItem] {
	typed := make([]Q, len(qs))
	for i, q := range qs {
		typed[i] = q.(Q)
	}
	res := s.eng.QueryBatchCtx(ctx, typed, k, parallelism)
	out := make([]BatchResult[ServedItem], len(res))
	for i, r := range res {
		items := make([]ServedItem, len(r.Items))
		for j, it := range r.Items {
			items[j] = s.item(it)
		}
		out[i] = BatchResult[ServedItem]{Items: items, Stats: r.Stats, Trace: r.Trace, Outcome: r.Outcome, Err: r.Err}
	}
	return out
}

func (s *served[Q, V, It]) InsertFresh(seed uint64) (float64, error) {
	g := wrand.New(seed)
	var w float64
	for {
		w = g.Float64() * 1e9
		if !s.eng.hasWeight(w) {
			break
		}
	}
	return w, s.eng.Insert(s.fresh(g, w))
}

func (s *served[Q, V, It]) InsertInvalid() error { return s.eng.Insert(s.invalid) }

func (s *served[Q, V, It]) Delete(weight float64) (bool, error) { return s.eng.Delete(weight) }

func (s *served[Q, V, It]) Stats() Stats                   { return s.eng.Stats() }
func (s *served[Q, V, It]) ResetStats()                    { s.eng.ResetStats() }
func (s *served[Q, V, It]) WriteMetrics(w io.Writer) error { return s.eng.WriteMetrics(w) }
func (s *served[Q, V, It]) SlowQueries() []string          { return s.eng.slowQueries() }
func (s *served[Q, V, It]) Snapshot(dir string) error      { return s.eng.snapDir(dir) }

// ---- registry entries -------------------------------------------------
//
// Workloads live on [0, 100] per axis with weights drawn distinct from
// [0, 1e6); query distributions are chosen so a typical query matches a
// non-trivial fraction of the items. Everything is a pure function of
// (n, seed), so twin builds are bit-identical.

const coordScale = 100

func decodeFloats(raw json.RawMessage, want int, shape string) ([]float64, error) {
	var xs []float64
	if err := json.Unmarshal(raw, &xs); err != nil {
		return nil, fmt.Errorf("want %s: %w", shape, err)
	}
	if len(xs) != want {
		return nil, fmt.Errorf("want %s, got %d numbers", shape, len(xs))
	}
	return xs, nil
}

// unmarshalItem decodes one ingest-stream object, wrapping JSON errors
// with the problem's documented item shape.
func unmarshalItem(raw json.RawMessage, shape string, into any) error {
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("want %s: %w", shape, err)
	}
	return nil
}

// itemWeight unwraps an item's required "weight" field. Weight is the
// item's identity, so an omitted field is a shape error rather than a
// silent zero.
func itemWeight(w *float64, shape string) (float64, error) {
	if w == nil {
		return 0, fmt.Errorf(`want %s: missing "weight"`, shape)
	}
	return *w, nil
}

// wireQueries derives a ProblemSpec.WireQueries from the spec's query
// generator and a JSON-shaping encoder. gen must be the same generator
// the served adapter uses, so wire workloads and in-process workloads
// agree at equal seed.
func wireQueries[Q any](gen func(*wrand.RNG) Q, enc func(Q) any) func(m int, seed uint64) []json.RawMessage {
	return func(m int, seed uint64) []json.RawMessage {
		g := wrand.New(seed)
		out := make([]json.RawMessage, m)
		for i := range out {
			b, err := json.Marshal(enc(gen(g)))
			if err != nil {
				panic(fmt.Sprintf("topk: encoding wire query: %v", err))
			}
			out[i] = b
		}
		return out
	}
}

func genCoords(g *wrand.RNG, d int) []float64 {
	cs := make([]float64, d)
	for i := range cs {
		cs[i] = g.Float64() * coordScale
	}
	return cs
}

// pointNItemShape is the shared PointItemN ingest shape for the ortho,
// circular, and halfspace entries; the coordinate count is checked by
// the problem's dimension validation on insert.
const pointNItemShape = `{"coords": [x1, ...], "weight": w}`

func decodePointN(raw json.RawMessage) (PointItemN[int], error) {
	var body struct {
		Coords []float64 `json:"coords"`
		Weight *float64  `json:"weight"`
	}
	if err := unmarshalItem(raw, pointNItemShape, &body); err != nil {
		return PointItemN[int]{}, err
	}
	w, err := itemWeight(body.Weight, pointNItemShape)
	if err != nil {
		return PointItemN[int]{}, err
	}
	return PointItemN[int]{Coords: body.Coords, Weight: w}, nil
}

// pointsN returns the shared PointItemN workload in dimension d for the
// ortho, circular, and halfspace entries.
func pointsN(d int) func(n int, seed uint64) []PointItemN[int] {
	return func(n int, seed uint64) []PointItemN[int] {
		g := wrand.New(seed)
		ws := g.UniqueFloats(n, 1e6)
		items := make([]PointItemN[int], n)
		for i := range items {
			items[i] = PointItemN[int]{Coords: genCoords(g, d), Weight: ws[i], Data: i}
		}
		return items
	}
}

// newSpec completes one registry entry from what is specific to its
// problem: the descriptor p, the deterministic n-item workload items,
// and the served template tmpl (query generator, codecs, label,
// fresh-item maker and canonical invalid item). doc carries the
// documentation fields (QueryShape, ItemShape, WireQueries). Name, Dim
// and NativeDynamic come from the descriptor, and every constructor —
// Build through BuildInvalid — is written here once for all problems.
func newSpec[Q, V, It any](p problem[Q, V, It], items func(n int, seed uint64) []It, tmpl served[Q, V, It], doc ProblemSpec) ProblemSpec {
	adapt := func(eng servedEngine[Q, It], nshards int) Served {
		sv := tmpl
		sv.p, sv.eng, sv.nshards = p, eng, nshards
		return &sv
	}
	// mk hands the restore path the descriptor, after checking that a
	// dimension-parameterized snapshot has the dimension the registry
	// serves.
	mk := func(h snap.Header) (problem[Q, V, It], error) {
		if p.dim > 0 && int(h.Dim) != p.dim {
			return problem[Q, V, It]{}, fmt.Errorf("topk: snapshot is %d-dimensional, the registry serves %s in dimension %d", h.Dim, p.name, p.dim)
		}
		return p, nil
	}
	s := doc
	s.Name, s.Dim, s.NativeDynamic = p.name, p.dim, p.dynPri != nil
	s.Build = func(n int, seed uint64, opts ...Option) (Served, error) {
		eng, err := newEngine(p, items(n, seed), opts)
		if err != nil {
			return nil, err
		}
		return adapt(eng, 1), nil
	}
	s.BuildSharded = func(n, shards int, seed uint64, opts ...Option) (Served, error) {
		sh, err := newSharded(p, items(n, seed), shards, opts)
		if err != nil {
			return nil, err
		}
		return adapt(sh, shards), nil
	}
	s.Restore = func(dir string, opts ...Option) (Served, error) {
		eng, nsh, err := restoreServedEngine(mk, dir, opts)
		if err != nil {
			return nil, err
		}
		return adapt(eng, nsh), nil
	}
	s.RestoreShard = func(dir string, shard int, opts ...Option) (Served, error) {
		eng, err := restoreShardEngine(mk, dir, shard, opts)
		if err != nil {
			return nil, err
		}
		return adapt(eng, 1), nil
	}
	s.Reshard = func(srcDir, dstDir string, shards int) error {
		return reshardSnapshot(mk, srcDir, dstDir, shards)
	}
	s.BuildInvalid = func(opts ...Option) error {
		_, err := newEngine(p, append(items(4, 1), tmpl.invalid), opts)
		return err
	}
	return s
}

var problemRegistry = []ProblemSpec{
	intervalSpec(),
	rangeSpec(),
	orthoSpec(),
	circularSpec(),
	dominanceSpec(),
	enclosureSpec(),
	halfplaneSpec(),
	halfspaceSpec(),
}

func intervalSpec() ProblemSpec {
	items := func(n int, seed uint64) []IntervalItem[int] {
		g := wrand.New(seed)
		ws := g.UniqueFloats(n, 1e6)
		items := make([]IntervalItem[int], n)
		for i := range items {
			lo := g.Float64() * coordScale
			items[i] = IntervalItem[int]{Lo: lo, Hi: lo + g.ExpFloat64()*5, Weight: ws[i], Data: i}
		}
		return items
	}
	genQ := func(g *wrand.RNG) float64 { return g.Float64() * coordScale }
	const itemShape = `{"lo": x1, "hi": x2, "weight": w}`
	return newSpec(intervalProblem[int](), items, served[float64, interval.Interval, IntervalItem[int]]{
		gen: genQ,
		decode: func(raw json.RawMessage) (float64, error) {
			var x float64
			if err := json.Unmarshal(raw, &x); err != nil {
				return 0, fmt.Errorf("want a stabbing point (number): %w", err)
			}
			return x, nil
		},
		decItem: func(raw json.RawMessage) (IntervalItem[int], error) {
			var body struct {
				Lo     float64  `json:"lo"`
				Hi     float64  `json:"hi"`
				Weight *float64 `json:"weight"`
			}
			if err := unmarshalItem(raw, itemShape, &body); err != nil {
				return IntervalItem[int]{}, err
			}
			w, err := itemWeight(body.Weight, itemShape)
			if err != nil {
				return IntervalItem[int]{}, err
			}
			return IntervalItem[int]{Lo: body.Lo, Hi: body.Hi, Weight: w}, nil
		},
		label: func(it IntervalItem[int]) string { return coordLabel("[", "]", it.Lo, it.Hi) },
		fresh: func(g *wrand.RNG, w float64) IntervalItem[int] {
			lo := g.Float64() * coordScale
			return IntervalItem[int]{Lo: lo, Hi: lo + 1, Weight: w}
		},
		invalid: IntervalItem[int]{Lo: 2, Hi: 1, Weight: 0.5},
	}, ProblemSpec{
		QueryShape:  "number (stabbing point x)",
		ItemShape:   itemShape,
		WireQueries: wireQueries(genQ, func(x float64) any { return x }),
	})
}

func rangeSpec() ProblemSpec {
	items := func(n int, seed uint64) []PointItem1[int] {
		g := wrand.New(seed)
		ws := g.UniqueFloats(n, 1e6)
		items := make([]PointItem1[int], n)
		for i := range items {
			items[i] = PointItem1[int]{Pos: g.Float64() * coordScale, Weight: ws[i], Data: i}
		}
		return items
	}
	genQ := func(g *wrand.RNG) rangerep.Span {
		a, b := g.Float64()*coordScale, g.Float64()*coordScale
		if a > b {
			a, b = b, a
		}
		return rangerep.Span{Lo: a, Hi: b}
	}
	const itemShape = `{"pos": x, "weight": w}`
	return newSpec(rangeProblem[int](), items, served[rangerep.Span, float64, PointItem1[int]]{
		gen: genQ,
		decode: func(raw json.RawMessage) (rangerep.Span, error) {
			xs, err := decodeFloats(raw, 2, "[lo, hi]")
			if err != nil {
				return rangerep.Span{}, err
			}
			return rangerep.Span{Lo: xs[0], Hi: xs[1]}, nil
		},
		decItem: func(raw json.RawMessage) (PointItem1[int], error) {
			var body struct {
				Pos    float64  `json:"pos"`
				Weight *float64 `json:"weight"`
			}
			if err := unmarshalItem(raw, itemShape, &body); err != nil {
				return PointItem1[int]{}, err
			}
			w, err := itemWeight(body.Weight, itemShape)
			if err != nil {
				return PointItem1[int]{}, err
			}
			return PointItem1[int]{Pos: body.Pos, Weight: w}, nil
		},
		label: func(it PointItem1[int]) string { return coordLabel("", "", it.Pos) },
		fresh: func(g *wrand.RNG, w float64) PointItem1[int] {
			return PointItem1[int]{Pos: g.Float64() * coordScale, Weight: w}
		},
		invalid: PointItem1[int]{Pos: math.NaN(), Weight: 0.5},
	}, ProblemSpec{
		QueryShape:  "[lo, hi]",
		ItemShape:   itemShape,
		WireQueries: wireQueries(genQ, func(q rangerep.Span) any { return [2]float64{q.Lo, q.Hi} }),
	})
}

func orthoSpec() ProblemSpec {
	const d = 2
	genQ := func(g *wrand.RNG) orthorange.Box {
		lo, hi := make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			a, b := g.Float64()*coordScale, g.Float64()*coordScale
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
		}
		q, _ := orthorange.NewBox(lo, hi)
		return q
	}
	return newSpec(orthoProblem[int](d), pointsN(d), served[orthorange.Box, halfspace.PtN, PointItemN[int]]{
		gen:     genQ,
		decItem: decodePointN,
		decode: func(raw json.RawMessage) (orthorange.Box, error) {
			var body struct {
				Lo []float64 `json:"lo"`
				Hi []float64 `json:"hi"`
			}
			if err := json.Unmarshal(raw, &body); err != nil {
				return orthorange.Box{}, fmt.Errorf(`want {"lo": [...], "hi": [...]}: %w`, err)
			}
			if len(body.Lo) != d || len(body.Hi) != d {
				return orthorange.Box{}, fmt.Errorf("want %d-dimensional lo and hi", d)
			}
			return orthorange.NewBox(body.Lo, body.Hi)
		},
		label: func(it PointItemN[int]) string { return coordLabel("(", ")", it.Coords...) },
		fresh: func(g *wrand.RNG, w float64) PointItemN[int] {
			return PointItemN[int]{Coords: genCoords(g, d), Weight: w}
		},
		invalid: PointItemN[int]{Coords: []float64{1, math.NaN()}, Weight: 0.5},
	}, ProblemSpec{
		QueryShape: `{"lo": [x1, x2], "hi": [x1, x2]}`,
		ItemShape:  pointNItemShape,
		WireQueries: wireQueries(genQ, func(q orthorange.Box) any {
			return map[string]any{"lo": q.Lo, "hi": q.Hi}
		}),
	})
}

func circularSpec() ProblemSpec {
	const d = 2
	genQ := func(g *wrand.RNG) circular.Ball {
		return circular.Ball{Center: genCoords(g, d), R: 5 + g.ExpFloat64()*10}
	}
	return newSpec(circularProblem[int](d), pointsN(d), served[circular.Ball, halfspace.PtN, PointItemN[int]]{
		gen:     genQ,
		decItem: decodePointN,
		decode: func(raw json.RawMessage) (circular.Ball, error) {
			var body struct {
				Center []float64 `json:"center"`
				Radius float64   `json:"radius"`
			}
			if err := json.Unmarshal(raw, &body); err != nil {
				return circular.Ball{}, fmt.Errorf(`want {"center": [...], "radius": r}: %w`, err)
			}
			if len(body.Center) != d {
				return circular.Ball{}, fmt.Errorf("want a %d-dimensional center", d)
			}
			return circular.Ball{Center: body.Center, R: body.Radius}, nil
		},
		label: func(it PointItemN[int]) string { return coordLabel("(", ")", it.Coords...) },
		fresh: func(g *wrand.RNG, w float64) PointItemN[int] {
			return PointItemN[int]{Coords: genCoords(g, d), Weight: w}
		},
		invalid: PointItemN[int]{Coords: []float64{math.NaN(), 1}, Weight: 0.5},
	}, ProblemSpec{
		QueryShape: `{"center": [x, y], "radius": r}`,
		ItemShape:  pointNItemShape,
		WireQueries: wireQueries(genQ, func(q circular.Ball) any {
			return map[string]any{"center": q.Center, "radius": q.R}
		}),
	})
}

func dominanceSpec() ProblemSpec {
	items := func(n int, seed uint64) []DominanceItem[int] {
		g := wrand.New(seed)
		ws := g.UniqueFloats(n, 1e6)
		items := make([]DominanceItem[int], n)
		for i := range items {
			items[i] = DominanceItem[int]{
				X: g.Float64() * coordScale, Y: g.Float64() * coordScale, Z: g.Float64() * coordScale,
				Weight: ws[i], Data: i,
			}
		}
		return items
	}
	genQ := func(g *wrand.RNG) dominance.Pt3 {
		return dominance.Pt3{X: g.Float64() * coordScale, Y: g.Float64() * coordScale, Z: g.Float64() * coordScale}
	}
	const itemShape = `{"x": x, "y": y, "z": z, "weight": w}`
	return newSpec(dominanceProblem[int](), items, served[dominance.Pt3, dominance.Pt3, DominanceItem[int]]{
		gen: genQ,
		decode: func(raw json.RawMessage) (dominance.Pt3, error) {
			xs, err := decodeFloats(raw, 3, "[x, y, z]")
			if err != nil {
				return dominance.Pt3{}, err
			}
			return dominance.Pt3{X: xs[0], Y: xs[1], Z: xs[2]}, nil
		},
		decItem: func(raw json.RawMessage) (DominanceItem[int], error) {
			var body struct {
				X      float64  `json:"x"`
				Y      float64  `json:"y"`
				Z      float64  `json:"z"`
				Weight *float64 `json:"weight"`
			}
			if err := unmarshalItem(raw, itemShape, &body); err != nil {
				return DominanceItem[int]{}, err
			}
			w, err := itemWeight(body.Weight, itemShape)
			if err != nil {
				return DominanceItem[int]{}, err
			}
			return DominanceItem[int]{X: body.X, Y: body.Y, Z: body.Z, Weight: w}, nil
		},
		label: func(it DominanceItem[int]) string {
			return coordLabel("(", ")", it.X, it.Y, it.Z)
		},
		fresh: func(g *wrand.RNG, w float64) DominanceItem[int] {
			return DominanceItem[int]{X: g.Float64() * coordScale, Y: g.Float64() * coordScale, Z: g.Float64() * coordScale, Weight: w}
		},
		invalid: DominanceItem[int]{X: math.NaN(), Weight: 0.5},
	}, ProblemSpec{
		QueryShape:  "[x, y, z] (dominance corner)",
		ItemShape:   itemShape,
		WireQueries: wireQueries(genQ, func(q dominance.Pt3) any { return [3]float64{q.X, q.Y, q.Z} }),
	})
}

func enclosureSpec() ProblemSpec {
	items := func(n int, seed uint64) []RectItem[int] {
		g := wrand.New(seed)
		ws := g.UniqueFloats(n, 1e6)
		items := make([]RectItem[int], n)
		for i := range items {
			x, y := g.Float64()*coordScale, g.Float64()*coordScale
			items[i] = RectItem[int]{
				X1: x, X2: x + g.ExpFloat64()*10, Y1: y, Y2: y + g.ExpFloat64()*10,
				Weight: ws[i], Data: i,
			}
		}
		return items
	}
	genQ := func(g *wrand.RNG) enclosure.Pt2 {
		return enclosure.Pt2{X: g.Float64() * coordScale, Y: g.Float64() * coordScale}
	}
	const itemShape = `{"x1": x1, "x2": x2, "y1": y1, "y2": y2, "weight": w}`
	return newSpec(enclosureProblem[int](), items, served[enclosure.Pt2, enclosure.Rect, RectItem[int]]{
		gen: genQ,
		decode: func(raw json.RawMessage) (enclosure.Pt2, error) {
			xs, err := decodeFloats(raw, 2, "[x, y]")
			if err != nil {
				return enclosure.Pt2{}, err
			}
			return enclosure.Pt2{X: xs[0], Y: xs[1]}, nil
		},
		decItem: func(raw json.RawMessage) (RectItem[int], error) {
			var body struct {
				X1     float64  `json:"x1"`
				X2     float64  `json:"x2"`
				Y1     float64  `json:"y1"`
				Y2     float64  `json:"y2"`
				Weight *float64 `json:"weight"`
			}
			if err := unmarshalItem(raw, itemShape, &body); err != nil {
				return RectItem[int]{}, err
			}
			w, err := itemWeight(body.Weight, itemShape)
			if err != nil {
				return RectItem[int]{}, err
			}
			return RectItem[int]{X1: body.X1, X2: body.X2, Y1: body.Y1, Y2: body.Y2, Weight: w}, nil
		},
		label: func(it RectItem[int]) string {
			return coordLabel("[", "]", it.X1, it.X2) + "×" + coordLabel("[", "]", it.Y1, it.Y2)
		},
		fresh: func(g *wrand.RNG, w float64) RectItem[int] {
			x, y := g.Float64()*coordScale, g.Float64()*coordScale
			return RectItem[int]{X1: x, X2: x + 1, Y1: y, Y2: y + 1, Weight: w}
		},
		invalid: RectItem[int]{X1: 2, X2: 1, Y1: 0, Y2: 1, Weight: 0.5},
	}, ProblemSpec{
		QueryShape:  "[x, y] (query point)",
		ItemShape:   itemShape,
		WireQueries: wireQueries(genQ, func(q enclosure.Pt2) any { return [2]float64{q.X, q.Y} }),
	})
}

func halfplaneSpec() ProblemSpec {
	items := func(n int, seed uint64) []PointItem2[int] {
		g := wrand.New(seed)
		ws := g.UniqueFloats(n, 1e6)
		items := make([]PointItem2[int], n)
		for i := range items {
			items[i] = PointItem2[int]{X: g.Float64() * coordScale, Y: g.Float64() * coordScale, Weight: ws[i], Data: i}
		}
		return items
	}
	// A boundary through a uniform point with a normal direction:
	// roughly half the items match.
	genQ := func(g *wrand.RNG) halfspace.Halfplane {
		a, b := g.NormFloat64(), g.NormFloat64()
		px, py := g.Float64()*coordScale, g.Float64()*coordScale
		return halfspace.Halfplane{A: a, B: b, C: a*px + b*py}
	}
	const itemShape = `{"x": x, "y": y, "weight": w}`
	return newSpec(halfplaneProblem[int](), items, served[halfspace.Halfplane, halfspace.Pt2, PointItem2[int]]{
		gen: genQ,
		decode: func(raw json.RawMessage) (halfspace.Halfplane, error) {
			xs, err := decodeFloats(raw, 3, "[a, b, c] (halfplane a·x + b·y ≥ c)")
			if err != nil {
				return halfspace.Halfplane{}, err
			}
			return halfspace.Halfplane{A: xs[0], B: xs[1], C: xs[2]}, nil
		},
		decItem: func(raw json.RawMessage) (PointItem2[int], error) {
			var body struct {
				X      float64  `json:"x"`
				Y      float64  `json:"y"`
				Weight *float64 `json:"weight"`
			}
			if err := unmarshalItem(raw, itemShape, &body); err != nil {
				return PointItem2[int]{}, err
			}
			w, err := itemWeight(body.Weight, itemShape)
			if err != nil {
				return PointItem2[int]{}, err
			}
			return PointItem2[int]{X: body.X, Y: body.Y, Weight: w}, nil
		},
		label: func(it PointItem2[int]) string { return coordLabel("(", ")", it.X, it.Y) },
		fresh: func(g *wrand.RNG, w float64) PointItem2[int] {
			return PointItem2[int]{X: g.Float64() * coordScale, Y: g.Float64() * coordScale, Weight: w}
		},
		invalid: PointItem2[int]{X: math.NaN(), Weight: 0.5},
	}, ProblemSpec{
		QueryShape:  "[a, b, c] (halfplane a·x + b·y ≥ c)",
		ItemShape:   itemShape,
		WireQueries: wireQueries(genQ, func(q halfspace.Halfplane) any { return [3]float64{q.A, q.B, q.C} }),
	})
}

func halfspaceSpec() ProblemSpec {
	const d = 3
	genQ := func(g *wrand.RNG) halfspace.Halfspace {
		a := make([]float64, d)
		c := 0.0
		for i := range a {
			a[i] = g.NormFloat64()
			c += a[i] * g.Float64() * coordScale
		}
		return halfspace.Halfspace{A: a, C: c}
	}
	return newSpec(halfspaceProblem[int](d), pointsN(d), served[halfspace.Halfspace, halfspace.PtN, PointItemN[int]]{
		gen:     genQ,
		decItem: decodePointN,
		decode: func(raw json.RawMessage) (halfspace.Halfspace, error) {
			var body struct {
				A []float64 `json:"a"`
				C float64   `json:"c"`
			}
			if err := json.Unmarshal(raw, &body); err != nil {
				return halfspace.Halfspace{}, fmt.Errorf(`want {"a": [...], "c": c}: %w`, err)
			}
			if len(body.A) != d {
				return halfspace.Halfspace{}, fmt.Errorf("want a %d-dimensional normal a", d)
			}
			return halfspace.Halfspace{A: body.A, C: body.C}, nil
		},
		label: func(it PointItemN[int]) string { return coordLabel("(", ")", it.Coords...) },
		fresh: func(g *wrand.RNG, w float64) PointItemN[int] {
			return PointItemN[int]{Coords: genCoords(g, d), Weight: w}
		},
		invalid: PointItemN[int]{Coords: []float64{1, 2}, Weight: 0.5}, // wrong dimension
	}, ProblemSpec{
		QueryShape: `{"a": [a1, a2, a3], "c": c} (halfspace a·x ≥ c)`,
		ItemShape:  pointNItemShape,
		WireQueries: wireQueries(genQ, func(q halfspace.Halfspace) any {
			return map[string]any{"a": q.A, "c": q.C}
		}),
	})
}
