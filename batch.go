package topk

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/em"
)

// This file implements the concurrent batch-query API shared by every
// index. An index is split into an immutable structure (blocks, core-sets,
// samples — everything built at construction time) and per-query mutable
// state: each query in a batch runs inside its own em.Tracker query view,
// a private cold LRU cache plus private counters, so any number of
// read-only queries can execute in parallel without corrupting the I/O
// accounting that validates the paper's Theorem 1/2 bounds. On completion
// each view's counters are merged into the index-wide Stats atomically.
//
// Because every view starts from a cold cache, a query's I/O cost is a
// deterministic function of the query alone: QueryBatch reports the same
// per-query Stats whether parallelism is 1 or 64. Batches must not run
// concurrently with Insert or Delete on the same index.

// QueryStats are the simulated I/O counters of a single query, measured
// from a cold private cache (the paper's worst-case accounting).
//
// Hits are block touches absorbed by the cache; they are free in the EM
// model and therefore excluded from IOs(). The invariant is
// IOs() == Reads + Writes, always — never Reads + Writes + Hits.
type QueryStats struct {
	Reads  int64 // block reads that missed the query's private cache
	Writes int64 // block writes
	Hits   int64 // touches served by the query's private cache (free)
}

// IOs returns Reads + Writes, the EM model's cost metric. Hits are not
// included: a cache hit costs nothing under the model.
func (s QueryStats) IOs() int64 { return s.Reads + s.Writes }

// HitRate returns the fraction of block touches served by the cache,
// Hits / (Hits + Reads), or 0 when the query touched no blocks. Writes
// are excluded: every write is charged regardless of residency.
func (s QueryStats) HitRate() float64 {
	total := s.Hits + s.Reads
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BatchResult pairs one query's answer with that query's own I/O cost.
// Trace is the query's phase-span trace, populated only on indexes built
// with WithTracing; its depth-0 spans partition Stats exactly (the sum of
// their Reads/Writes/Hits equals the query's — the residual, if any,
// appears as an "em.unattributed" event).
type BatchResult[R any] struct {
	Items []R
	Stats QueryStats
	Trace []TraceEvent

	// Outcome and Err report the query's request-lifecycle ending when it
	// ran under a QueryCtx (QueryBatchCtx). Plain QueryBatch always
	// leaves the zero values: OutcomeOK, nil. When a limit fired, Err
	// wraps ErrBudgetExceeded or ErrDeadlineExceeded and Items is either
	// empty or — with QueryCtx.DegradeToMax — the documented top-1
	// fallback prefix (Outcome == OutcomeDegraded). Stats always covers
	// the work actually charged before the abort.
	Outcome Outcome
	Err     error
}

// Span is a 1D query range [Lo, Hi] for RangeIndex.QueryBatch.
type Span struct {
	Lo, Hi float64
}

// BoxQuery is an axis-aligned box [Lo, Hi] for OrthoIndex.QueryBatch.
type BoxQuery struct {
	Lo, Hi []float64
}

// BallQuery is a center/radius ball for CircularIndex.QueryBatch.
type BallQuery struct {
	Center []float64
	Radius float64
}

// CornerQuery is a dominance corner (X, Y, Z) for
// DominanceIndex.QueryBatch.
type CornerQuery struct {
	X, Y, Z float64
}

// PointQuery is a 2D point for EnclosureIndex.QueryBatch.
type PointQuery struct {
	X, Y float64
}

// HalfplaneQuery is the halfplane {(x, y) : A·x + B·y ≥ C} for
// HalfplaneIndex.QueryBatch.
type HalfplaneQuery struct {
	A, B, C float64
}

// HalfspaceQuery is the halfspace {x : A·x ≥ C} for
// HalfspaceIndex.QueryBatch.
type HalfspaceQuery struct {
	A []float64
	C float64
}

// batchSpec carries the per-batch execution hooks through runBatch: the
// query function, the request-lifecycle limits, and the unlimited Max
// fallback used by the degradation ladder (nil when the caller has no
// top-1 path).
type batchSpec[Q, R any] struct {
	ctx QueryCtx
	k   int
	one func(*em.QueryView, Q) []R // charges every I/O to the given view
	max func(Q) []R                // shared-path top-1 fallback
}

// runBatch answers qs[i] via spec.one(v, qs[i]) on a bounded pool of
// `parallelism` worker goroutines, where v is a fresh em.Tracker query view
// per call, so the result carries that query's own cold-cache I/O stats.
// parallelism <= 0 means GOMAXPROCS. Results are positionally aligned
// with qs.
//
// When spec.ctx is limited, the view is armed with the I/O budget and
// deadline before the query runs; a charge path that trips a limit
// panics with *em.AbortError, which is recovered here at the query
// boundary and mapped onto the result's Outcome/Err (plus the Max
// fallback when requested). The view's partial counters stay exact.
//
// Any other panic inside spec.one does not wedge the pool: the
// panicking worker ends its view, the remaining workers drain, and the
// first panic value is re-raised on the calling goroutine once all
// workers have exited. Workers stop claiming new queries after a panic,
// so later results may be zero.
func runBatch[Q, R any](tr *em.Tracker, ob *indexObs, qs []Q, parallelism int, spec batchSpec[Q, R]) []BatchResult[R] {
	if len(qs) == 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(qs) {
		parallelism = len(qs)
	}
	limited := spec.ctx.limited()
	out := make([]BatchResult[R], len(qs))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		aborted  atomic.Bool
		panicked atomic.Pointer[any]
	)
	runOne := func(i int) {
		var t0 time.Time
		if ob != nil {
			t0 = time.Now()
		}
		v := tr.BeginQuery()
		if limited {
			v.SetLimits(spec.ctx.IOBudget, spec.ctx.Deadline)
		}
		done := false
		defer func() {
			if !done {
				// spec.one panicked: end the view so the tracker's
				// open-view count doesn't leak, record the first panic,
				// and stop the pool from claiming further queries.
				v.End()
				if r := recover(); r != nil {
					aborted.Store(true)
					panicked.CompareAndSwap(nil, &r)
				}
			}
		}()
		items, abort := runLimited(spec.one, v, qs[i])
		st := v.End()
		out[i] = BatchResult[R]{
			Items: items,
			Stats: QueryStats{Reads: st.Reads, Writes: st.Writes, Hits: st.Hits},
		}
		if abort != nil {
			res := &out[i]
			res.Items = nil
			switch abort.Reason {
			case em.AbortBudget:
				res.Outcome = OutcomeBudgetExceeded
				res.Err = fmt.Errorf("%w (charged %d of %d I/Os)",
					ErrBudgetExceeded, abort.IOs, abort.Budget)
			default:
				res.Outcome = OutcomeDeadlineExceeded
				res.Err = fmt.Errorf("%w (aborted after %d I/Os)",
					ErrDeadlineExceeded, abort.IOs)
			}
			if spec.ctx.DegradeToMax && spec.max != nil {
				// The ladder's last rung: serve the top-1, the provably
				// correct prefix of the true top-k. It runs unlimited on
				// the shared path — Max is the cheapest query the paper
				// defines — so its cost lands in index-wide Stats.
				res.Items = spec.max(qs[i])
				res.Outcome = OutcomeDegraded
			}
		}
		if ob != nil {
			trace := v.Trace()
			if ob.wantTrace() {
				out[i].Trace = toPublicTrace(trace)
			}
			ob.observeQuery(time.Since(t0), st, trace, batchLifecycle{
				ctx: spec.ctx, k: spec.k, outcome: out[i].Outcome, abort: abort,
			}, func() string { return fmt.Sprintf("%+v", qs[i]) })
		}
		done = true
	}
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return out
}

// runLimited executes one query and converts an *em.AbortError panic —
// the budget/deadline sentinel raised by the view's charge paths — into
// a return value. Every other panic keeps unwinding into runBatch's
// pool-abort handling.
func runLimited[Q, R any](one func(*em.QueryView, Q) []R, v *em.QueryView, q Q) (items []R, abort *em.AbortError) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(*em.AbortError); ok {
				items, abort = nil, ae
				return
			}
			panic(r)
		}
	}()
	return one(v, q), nil
}
