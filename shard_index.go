package topk

import (
	"fmt"
	"math"

	"topk/internal/circular"
	"topk/internal/core"
	"topk/internal/dominance"
	"topk/internal/enclosure"
	"topk/internal/halfspace"
	"topk/internal/interval"
	"topk/internal/orthorange"
	"topk/internal/rangerep"
)

// This file fixes the generic Sharded core to each of the eight
// problems, exactly as the *_index.go facades fix the engine: every
// wrapper embeds *Sharded (promoting Insert, Delete, Len, Items, Stats,
// ShardLens, WriteMetrics, …) and shadows the query methods with the
// problem's natural signatures. The semantic contract is the facades':
// a sharded index answers what the corresponding single index over the
// same items would, at any shard count.

// ShardedIntervalIndex is an IntervalIndex partitioned across shards;
// see Sharded for the fan-out/merge and update-routing contract.
type ShardedIntervalIndex[T any] struct {
	*Sharded[float64, interval.Interval, IntervalItem[T]]
}

// NewShardedIntervalIndex builds an interval index over items split
// into the given number of shards. Weights must be distinct across the
// whole index.
func NewShardedIntervalIndex[T any](items []IntervalItem[T], shards int, opts ...Option) (*ShardedIntervalIndex[T], error) {
	s, err := newSharded(intervalProblem[T](), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedIntervalIndex[T]{s}, nil
}

// TopK returns the k heaviest intervals containing x, heaviest first.
func (ix *ShardedIntervalIndex[T]) TopK(x float64, k int) []IntervalItem[T] {
	return ix.Sharded.TopK(x, k)
}

// ReportAbove streams every interval containing x with weight ≥ tau.
func (ix *ShardedIntervalIndex[T]) ReportAbove(x, tau float64, visit func(IntervalItem[T]) bool) {
	ix.Sharded.ReportAbove(x, tau, visit)
}

// Max returns the heaviest interval containing x (a top-1 query).
func (ix *ShardedIntervalIndex[T]) Max(x float64) (IntervalItem[T], bool) {
	return ix.Sharded.Max(x)
}

// QueryBatch answers one stabbing query per element of xs; see
// Sharded.QueryBatch for the stats-summing contract.
func (ix *ShardedIntervalIndex[T]) QueryBatch(xs []float64, k int, parallelism int) []BatchResult[IntervalItem[T]] {
	return ix.Sharded.QueryBatch(xs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedIntervalIndex[T]) QueryBatchCtx(ctx QueryCtx, xs []float64, k int, parallelism int) []BatchResult[IntervalItem[T]] {
	return ix.Sharded.QueryBatchCtx(ctx, xs, k, parallelism)
}

// ShardedRangeIndex is a RangeIndex partitioned across shards.
type ShardedRangeIndex[T any] struct {
	*Sharded[rangerep.Span, float64, PointItem1[T]]
}

// NewShardedRangeIndex builds a 1D range index over items split into
// the given number of shards.
func NewShardedRangeIndex[T any](items []PointItem1[T], shards int, opts ...Option) (*ShardedRangeIndex[T], error) {
	s, err := newSharded(rangeProblem[T](), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedRangeIndex[T]{s}, nil
}

// TopK returns the k heaviest points in [lo, hi], heaviest first.
func (ix *ShardedRangeIndex[T]) TopK(lo, hi float64, k int) []PointItem1[T] {
	return ix.Sharded.TopK(rangerep.Span{Lo: lo, Hi: hi}, k)
}

// ReportAbove streams every point in [lo, hi] with weight ≥ tau.
func (ix *ShardedRangeIndex[T]) ReportAbove(lo, hi, tau float64, visit func(PointItem1[T]) bool) {
	ix.Sharded.ReportAbove(rangerep.Span{Lo: lo, Hi: hi}, tau, visit)
}

// Max returns the heaviest point in [lo, hi] (a top-1 query).
func (ix *ShardedRangeIndex[T]) Max(lo, hi float64) (PointItem1[T], bool) {
	return ix.Sharded.Max(rangerep.Span{Lo: lo, Hi: hi})
}

// Count returns the number of points in [lo, hi], summed over shards.
func (ix *ShardedRangeIndex[T]) Count(lo, hi float64) int {
	q := rangerep.Span{Lo: lo, Hi: hi}
	n := 0
	for _, e := range ix.shards {
		if p, ok := e.pri.(*rangerep.Points); ok {
			n += p.Count(nil, q)
			continue
		}
		e.pri.ReportAbove(nil, q, math.Inf(-1), func(core.Item[float64]) bool {
			n++
			return true
		})
	}
	return n
}

// QueryBatch answers one range query per Span; see Sharded.QueryBatch.
func (ix *ShardedRangeIndex[T]) QueryBatch(spans []Span, k int, parallelism int) []BatchResult[PointItem1[T]] {
	return ix.QueryBatchCtx(QueryCtx{}, spans, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedRangeIndex[T]) QueryBatchCtx(ctx QueryCtx, spans []Span, k int, parallelism int) []BatchResult[PointItem1[T]] {
	qs := make([]rangerep.Span, len(spans))
	for i, s := range spans {
		qs[i] = rangerep.Span{Lo: s.Lo, Hi: s.Hi}
	}
	return ix.Sharded.QueryBatchCtx(ctx, qs, k, parallelism)
}

// ShardedOrthoIndex is an OrthoIndex partitioned across shards.
type ShardedOrthoIndex[T any] struct {
	d int
	*Sharded[orthorange.Box, halfspace.PtN, PointItemN[T]]
}

// NewShardedOrthoIndex builds a d-dimensional orthogonal range index
// over items split into the given number of shards.
func NewShardedOrthoIndex[T any](items []PointItemN[T], d, shards int, opts ...Option) (*ShardedOrthoIndex[T], error) {
	if d < 1 {
		return nil, fmt.Errorf("topk: dimension %d", d)
	}
	s, err := newSharded(orthoProblem[T](d), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedOrthoIndex[T]{d: d, Sharded: s}, nil
}

// Dim returns the index dimension.
func (ix *ShardedOrthoIndex[T]) Dim() int { return ix.d }

func (ix *ShardedOrthoIndex[T]) box(lo, hi []float64) (orthorange.Box, error) {
	q, err := orthorange.NewBox(lo, hi)
	if err != nil {
		return orthorange.Box{}, err
	}
	if len(lo) != ix.d {
		return orthorange.Box{}, fmt.Errorf("topk: box has %d coordinates in dimension %d", len(lo), ix.d)
	}
	return q, nil
}

// TopK returns the k heaviest points inside the box [lo, hi], heaviest
// first. Malformed boxes return an error.
func (ix *ShardedOrthoIndex[T]) TopK(lo, hi []float64, k int) ([]PointItemN[T], error) {
	q, err := ix.box(lo, hi)
	if err != nil {
		return nil, err
	}
	return ix.Sharded.TopK(q, k), nil
}

// ReportAbove streams every point inside the box with weight ≥ tau.
func (ix *ShardedOrthoIndex[T]) ReportAbove(lo, hi []float64, tau float64, visit func(PointItemN[T]) bool) error {
	q, err := ix.box(lo, hi)
	if err != nil {
		return err
	}
	ix.Sharded.ReportAbove(q, tau, visit)
	return nil
}

// Max returns the heaviest point inside the box.
func (ix *ShardedOrthoIndex[T]) Max(lo, hi []float64) (PointItemN[T], bool, error) {
	q, err := ix.box(lo, hi)
	if err != nil {
		return PointItemN[T]{}, false, err
	}
	it, ok := ix.Sharded.Max(q)
	return it, ok, nil
}

// QueryBatch answers one box query per BoxQuery, validating all boxes
// up front; see Sharded.QueryBatch.
func (ix *ShardedOrthoIndex[T]) QueryBatch(qs []BoxQuery, k int, parallelism int) ([]BatchResult[PointItemN[T]], error) {
	return ix.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedOrthoIndex[T]) QueryBatchCtx(ctx QueryCtx, qs []BoxQuery, k int, parallelism int) ([]BatchResult[PointItemN[T]], error) {
	boxes := make([]orthorange.Box, len(qs))
	for i, q := range qs {
		b, err := ix.box(q.Lo, q.Hi)
		if err != nil {
			return nil, fmt.Errorf("topk: batch query %d: %w", i, err)
		}
		boxes[i] = b
	}
	return ix.Sharded.QueryBatchCtx(ctx, boxes, k, parallelism), nil
}

// ShardedCircularIndex is a CircularIndex partitioned across shards.
type ShardedCircularIndex[T any] struct {
	d int
	*Sharded[circular.Ball, halfspace.PtN, PointItemN[T]]
}

// NewShardedCircularIndex builds a d-dimensional circular range index
// over items split into the given number of shards.
func NewShardedCircularIndex[T any](items []PointItemN[T], d, shards int, opts ...Option) (*ShardedCircularIndex[T], error) {
	if d < 1 {
		return nil, fmt.Errorf("topk: dimension %d", d)
	}
	s, err := newSharded(circularProblem[T](d), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedCircularIndex[T]{d: d, Sharded: s}, nil
}

// Dim returns the index dimension (of the original, unlifted points).
func (ix *ShardedCircularIndex[T]) Dim() int { return ix.d }

// TopK returns the k heaviest points within distance r of center,
// heaviest first.
func (ix *ShardedCircularIndex[T]) TopK(center []float64, r float64, k int) []PointItemN[T] {
	return ix.Sharded.TopK(circular.Ball{Center: center, R: r}, k)
}

// ReportAbove streams every point within the ball with weight ≥ tau.
func (ix *ShardedCircularIndex[T]) ReportAbove(center []float64, r, tau float64, visit func(PointItemN[T]) bool) {
	ix.Sharded.ReportAbove(circular.Ball{Center: center, R: r}, tau, visit)
}

// Max returns the heaviest point within the ball (a top-1 query).
func (ix *ShardedCircularIndex[T]) Max(center []float64, r float64) (PointItemN[T], bool) {
	return ix.Sharded.Max(circular.Ball{Center: center, R: r})
}

// QueryBatch answers one ball query per BallQuery; see
// Sharded.QueryBatch.
func (ix *ShardedCircularIndex[T]) QueryBatch(qs []BallQuery, k int, parallelism int) []BatchResult[PointItemN[T]] {
	return ix.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedCircularIndex[T]) QueryBatchCtx(ctx QueryCtx, qs []BallQuery, k int, parallelism int) []BatchResult[PointItemN[T]] {
	balls := make([]circular.Ball, len(qs))
	for i, q := range qs {
		balls[i] = circular.Ball{Center: q.Center, R: q.Radius}
	}
	return ix.Sharded.QueryBatchCtx(ctx, balls, k, parallelism)
}

// ShardedDominanceIndex is a DominanceIndex partitioned across shards.
type ShardedDominanceIndex[T any] struct {
	*Sharded[dominance.Pt3, dominance.Pt3, DominanceItem[T]]
}

// NewShardedDominanceIndex builds a 3D dominance index over items split
// into the given number of shards.
func NewShardedDominanceIndex[T any](items []DominanceItem[T], shards int, opts ...Option) (*ShardedDominanceIndex[T], error) {
	s, err := newSharded(dominanceProblem[T](), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedDominanceIndex[T]{s}, nil
}

// TopK returns the k heaviest points dominated by (x, y, z), heaviest
// first.
func (ix *ShardedDominanceIndex[T]) TopK(x, y, z float64, k int) []DominanceItem[T] {
	return ix.Sharded.TopK(dominance.Pt3{X: x, Y: y, Z: z}, k)
}

// ReportAbove streams every point dominated by (x, y, z) with weight ≥
// tau.
func (ix *ShardedDominanceIndex[T]) ReportAbove(x, y, z, tau float64, visit func(DominanceItem[T]) bool) {
	ix.Sharded.ReportAbove(dominance.Pt3{X: x, Y: y, Z: z}, tau, visit)
}

// Max returns the heaviest point dominated by (x, y, z).
func (ix *ShardedDominanceIndex[T]) Max(x, y, z float64) (DominanceItem[T], bool) {
	return ix.Sharded.Max(dominance.Pt3{X: x, Y: y, Z: z})
}

// QueryBatch answers one dominance query per CornerQuery; see
// Sharded.QueryBatch.
func (ix *ShardedDominanceIndex[T]) QueryBatch(qs []CornerQuery, k int, parallelism int) []BatchResult[DominanceItem[T]] {
	return ix.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedDominanceIndex[T]) QueryBatchCtx(ctx QueryCtx, qs []CornerQuery, k int, parallelism int) []BatchResult[DominanceItem[T]] {
	corners := make([]dominance.Pt3, len(qs))
	for i, q := range qs {
		corners[i] = dominance.Pt3{X: q.X, Y: q.Y, Z: q.Z}
	}
	return ix.Sharded.QueryBatchCtx(ctx, corners, k, parallelism)
}

// ShardedEnclosureIndex is an EnclosureIndex partitioned across shards.
type ShardedEnclosureIndex[T any] struct {
	*Sharded[enclosure.Pt2, enclosure.Rect, RectItem[T]]
}

// NewShardedEnclosureIndex builds a 2D point-enclosure index over items
// split into the given number of shards.
func NewShardedEnclosureIndex[T any](items []RectItem[T], shards int, opts ...Option) (*ShardedEnclosureIndex[T], error) {
	s, err := newSharded(enclosureProblem[T](), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedEnclosureIndex[T]{s}, nil
}

// TopK returns the k heaviest rectangles containing (x, y), heaviest
// first.
func (ix *ShardedEnclosureIndex[T]) TopK(x, y float64, k int) []RectItem[T] {
	return ix.Sharded.TopK(enclosure.Pt2{X: x, Y: y}, k)
}

// ReportAbove streams every rectangle containing (x, y) with weight ≥
// tau.
func (ix *ShardedEnclosureIndex[T]) ReportAbove(x, y, tau float64, visit func(RectItem[T]) bool) {
	ix.Sharded.ReportAbove(enclosure.Pt2{X: x, Y: y}, tau, visit)
}

// Max returns the heaviest rectangle containing (x, y).
func (ix *ShardedEnclosureIndex[T]) Max(x, y float64) (RectItem[T], bool) {
	return ix.Sharded.Max(enclosure.Pt2{X: x, Y: y})
}

// QueryBatch answers one enclosure query per PointQuery; see
// Sharded.QueryBatch.
func (ix *ShardedEnclosureIndex[T]) QueryBatch(qs []PointQuery, k int, parallelism int) []BatchResult[RectItem[T]] {
	return ix.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedEnclosureIndex[T]) QueryBatchCtx(ctx QueryCtx, qs []PointQuery, k int, parallelism int) []BatchResult[RectItem[T]] {
	pts := make([]enclosure.Pt2, len(qs))
	for i, q := range qs {
		pts[i] = enclosure.Pt2{X: q.X, Y: q.Y}
	}
	return ix.Sharded.QueryBatchCtx(ctx, pts, k, parallelism)
}

// ShardedHalfplaneIndex is a HalfplaneIndex partitioned across shards.
type ShardedHalfplaneIndex[T any] struct {
	*Sharded[halfspace.Halfplane, halfspace.Pt2, PointItem2[T]]
}

// NewShardedHalfplaneIndex builds a 2D halfspace index over items split
// into the given number of shards.
func NewShardedHalfplaneIndex[T any](items []PointItem2[T], shards int, opts ...Option) (*ShardedHalfplaneIndex[T], error) {
	s, err := newSharded(halfplaneProblem[T](), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedHalfplaneIndex[T]{s}, nil
}

// TopK returns the k heaviest points with a·x + b·y ≥ c, heaviest
// first.
func (ix *ShardedHalfplaneIndex[T]) TopK(a, b, c float64, k int) []PointItem2[T] {
	return ix.Sharded.TopK(halfspace.Halfplane{A: a, B: b, C: c}, k)
}

// ReportAbove streams every point in the halfplane with weight ≥ tau.
func (ix *ShardedHalfplaneIndex[T]) ReportAbove(a, b, c, tau float64, visit func(PointItem2[T]) bool) {
	ix.Sharded.ReportAbove(halfspace.Halfplane{A: a, B: b, C: c}, tau, visit)
}

// Max returns the heaviest point in the halfplane.
func (ix *ShardedHalfplaneIndex[T]) Max(a, b, c float64) (PointItem2[T], bool) {
	return ix.Sharded.Max(halfspace.Halfplane{A: a, B: b, C: c})
}

// QueryBatch answers one halfplane query per HalfplaneQuery; see
// Sharded.QueryBatch.
func (ix *ShardedHalfplaneIndex[T]) QueryBatch(qs []HalfplaneQuery, k int, parallelism int) []BatchResult[PointItem2[T]] {
	return ix.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedHalfplaneIndex[T]) QueryBatchCtx(ctx QueryCtx, qs []HalfplaneQuery, k int, parallelism int) []BatchResult[PointItem2[T]] {
	hps := make([]halfspace.Halfplane, len(qs))
	for i, q := range qs {
		hps[i] = halfspace.Halfplane{A: q.A, B: q.B, C: q.C}
	}
	return ix.Sharded.QueryBatchCtx(ctx, hps, k, parallelism)
}

// ShardedHalfspaceIndex is a HalfspaceIndex partitioned across shards.
type ShardedHalfspaceIndex[T any] struct {
	d int
	*Sharded[halfspace.Halfspace, halfspace.PtN, PointItemN[T]]
}

// NewShardedHalfspaceIndex builds a d-dimensional halfspace index over
// items split into the given number of shards.
func NewShardedHalfspaceIndex[T any](items []PointItemN[T], d, shards int, opts ...Option) (*ShardedHalfspaceIndex[T], error) {
	if d < 1 {
		return nil, fmt.Errorf("topk: dimension %d", d)
	}
	s, err := newSharded(halfspaceProblem[T](d), items, shards, opts)
	if err != nil {
		return nil, err
	}
	return &ShardedHalfspaceIndex[T]{d: d, Sharded: s}, nil
}

// Dim returns the index dimension.
func (ix *ShardedHalfspaceIndex[T]) Dim() int { return ix.d }

// TopK returns the k heaviest points with a·x ≥ c, heaviest first.
func (ix *ShardedHalfspaceIndex[T]) TopK(a []float64, c float64, k int) []PointItemN[T] {
	return ix.Sharded.TopK(halfspace.Halfspace{A: a, C: c}, k)
}

// ReportAbove streams every point in the halfspace with weight ≥ tau.
func (ix *ShardedHalfspaceIndex[T]) ReportAbove(a []float64, c, tau float64, visit func(PointItemN[T]) bool) {
	ix.Sharded.ReportAbove(halfspace.Halfspace{A: a, C: c}, tau, visit)
}

// Max returns the heaviest point in the halfspace.
func (ix *ShardedHalfspaceIndex[T]) Max(a []float64, c float64) (PointItemN[T], bool) {
	return ix.Sharded.Max(halfspace.Halfspace{A: a, C: c})
}

// QueryBatch answers one halfspace query per HalfspaceQuery; see
// Sharded.QueryBatch.
func (ix *ShardedHalfspaceIndex[T]) QueryBatch(qs []HalfspaceQuery, k int, parallelism int) []BatchResult[PointItemN[T]] {
	return ix.QueryBatchCtx(QueryCtx{}, qs, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract; see
// Sharded.QueryBatchCtx for the per-shard budget and merge rules.
func (ix *ShardedHalfspaceIndex[T]) QueryBatchCtx(ctx QueryCtx, qs []HalfspaceQuery, k int, parallelism int) []BatchResult[PointItemN[T]] {
	hss := make([]halfspace.Halfspace, len(qs))
	for i, q := range qs {
		hss[i] = halfspace.Halfspace{A: q.A, C: q.C}
	}
	return ix.Sharded.QueryBatchCtx(ctx, hss, k, parallelism)
}
