package topk

import (
	"fmt"
	"io"
	"math"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/rangerep"
	"topk/internal/snap"
)

// PointItem1 is one weighted point on the real line with a payload.
type PointItem1[T any] struct {
	Pos    float64
	Weight float64
	Data   T
}

// rangeProblem is the engine descriptor for top-k 1D range reporting.
func rangeProblem[T any]() problem[rangerep.Span, float64, PointItem1[T]] {
	return problem[rangerep.Span, float64, PointItem1[T]]{
		name:   "range",
		match:  rangerep.Match,
		lambda: rangerep.Lambda,
		pri: func(tr *em.Tracker) core.PrioritizedFactory[rangerep.Span, float64] {
			return rangerep.NewPrioritizedFactory(tr)
		},
		max: func(tr *em.Tracker) core.MaxFactory[rangerep.Span, float64] {
			return rangerep.NewMaxFactory(tr)
		},
		dynPri: func(tr *em.Tracker) core.DynamicPrioritizedFactory[rangerep.Span, float64] {
			return rangerep.NewDynamicPrioritizedFactory(tr)
		},
		dynMax: func(tr *em.Tracker) core.DynamicMaxFactory[rangerep.Span, float64] {
			return rangerep.NewDynamicMaxFactory(tr)
		},
		validate: func(it PointItem1[T]) error {
			if math.IsNaN(it.Pos) {
				return fmt.Errorf("topk: NaN position")
			}
			return nil
		},
		weight: func(it PointItem1[T]) float64 { return it.Weight },
		toCore: func(it PointItem1[T]) core.Item[float64] {
			return core.Item[float64]{Value: it.Pos, Weight: it.Weight}
		},
		fromCore: func(ci core.Item[float64], st PointItem1[T]) PointItem1[T] {
			st.Pos, st.Weight = ci.Value, ci.Weight
			return st
		},
		describe: func(q rangerep.Span, k int) string {
			return fmt.Sprintf("range [%v,%v] k=%d", q.Lo, q.Hi, k)
		},
	}
}

// RangeIndex answers top-k 1D range-reporting queries — the most-studied
// problem of the paper's framework (its Section 2 survey): given a range
// [lo, hi] and k, return the k heaviest points inside. With the Expected
// reduction (the default) the index is dynamic.
type RangeIndex[T any] struct {
	facade[rangerep.Span, float64, PointItem1[T]]
}

// NewRangeIndex builds an index over items (weights distinct).
func NewRangeIndex[T any](items []PointItem1[T], opts ...Option) (*RangeIndex[T], error) {
	eng, err := newEngine(rangeProblem[T](), items, opts)
	if err != nil {
		return nil, err
	}
	return &RangeIndex[T]{newFacade(eng)}, nil
}

// TopK returns the k heaviest points in [lo, hi], heaviest first.
func (ix *RangeIndex[T]) TopK(lo, hi float64, k int) []PointItem1[T] {
	return ix.eng.TopK(rangerep.Span{Lo: lo, Hi: hi}, k)
}

// ReportAbove streams every point in [lo, hi] with weight ≥ tau.
func (ix *RangeIndex[T]) ReportAbove(lo, hi, tau float64, visit func(PointItem1[T]) bool) {
	ix.eng.ReportAbove(rangerep.Span{Lo: lo, Hi: hi}, tau, visit)
}

// Max returns the heaviest point in [lo, hi] (a top-1 query).
func (ix *RangeIndex[T]) Max(lo, hi float64) (PointItem1[T], bool) {
	return ix.eng.Max(rangerep.Span{Lo: lo, Hi: hi})
}

// Count returns the number of points in [lo, hi]: O(log_B n) I/Os when the
// reduction's black box supports counting (all but FullScan), otherwise by
// enumeration.
func (ix *RangeIndex[T]) Count(lo, hi float64) int {
	q := rangerep.Span{Lo: lo, Hi: hi}
	if p, ok := ix.eng.pri.(*rangerep.Points); ok {
		return p.Count(nil, q)
	}
	n := 0
	ix.eng.pri.ReportAbove(nil, q, math.Inf(-1), func(core.Item[float64]) bool {
		n++
		return true
	})
	return n
}

// Items returns a snapshot of the live points in unspecified order — the
// full state needed to persist and rebuild the index (construction is
// deterministic given the same items, options, and seed).
func (ix *RangeIndex[T]) Items() []PointItem1[T] { return ix.eng.Items() }

// QueryBatch answers one top-k range query per Span on a bounded pool of
// `parallelism` worker goroutines (GOMAXPROCS when <= 0). Each query runs
// in its own cold tracker view, so per-query Stats are independent of
// parallelism; see IntervalIndex.QueryBatch for the full contract. Must
// not run concurrently with Insert or Delete.
func (ix *RangeIndex[T]) QueryBatch(spans []Span, k int, parallelism int) []BatchResult[PointItem1[T]] {
	return ix.QueryBatchCtx(QueryCtx{}, spans, k, parallelism)
}

// QueryBatchCtx is QueryBatch under a request-lifecycle contract (see
// IntervalIndex.QueryBatchCtx); a zero ctx is exactly QueryBatch.
func (ix *RangeIndex[T]) QueryBatchCtx(ctx QueryCtx, spans []Span, k int, parallelism int) []BatchResult[PointItem1[T]] {
	qs := make([]rangerep.Span, len(spans))
	for i, s := range spans {
		qs[i] = rangerep.Span{Lo: s.Lo, Hi: s.Hi}
	}
	return ix.eng.QueryBatchCtx(ctx, qs, k, parallelism)
}

// RestoreRangeIndex reconstructs a range index from a snapshot stream
// written by Snapshot; see RestoreIntervalIndex for the warm-start
// contract shared by all Restore constructors.
func RestoreRangeIndex[T any](r io.Reader, opts ...Option) (*RangeIndex[T], error) {
	eng, err := restoreEngine(func(snap.Header) (problem[rangerep.Span, float64, PointItem1[T]], error) {
		return rangeProblem[T](), nil
	}, r, opts)
	if err != nil {
		return nil, err
	}
	return &RangeIndex[T]{newFacade(eng)}, nil
}
