package topk

import (
	"errors"
	"time"
)

// This file defines the request-lifecycle contract: a QueryCtx carries a
// per-query I/O budget and wall-clock deadline from the serving layer
// through the engine and shard fan-out down to the em.QueryView charge
// paths, where exceeding either aborts the query mid-walk. The paper's
// cost model is what makes the budget meaningful: every query has a
// predictable I/O price (Theorems 1–2), so a budget derived from the
// observed per-phase costs separates well-behaved queries from runaway
// ones, and an abort is an SLO signal rather than an accident.
//
// Degradation ladder: a query that exceeds its limits either
//
//  1. fails typed — empty Items, Err wrapping ErrBudgetExceeded or
//     ErrDeadlineExceeded, Outcome naming the reason — or,
//  2. with DegradeToMax set, falls back to the top-1 answer (Max), which
//     by the total order on weights is exactly the first element of the
//     true top-k: a correct prefix, never a wrong full answer. The
//     result is marked OutcomeDegraded and Err still reports why.
//
// The fallback runs without limits on the shared tracker path (Max is
// O(log_B n + 1) I/Os for every problem, the cheapest query the paper
// defines), so its cost lands in index-wide Stats rather than the
// aborted query's own counters.

// Sentinel errors for results whose QueryCtx limits fired. Compare with
// errors.Is: BatchResult.Err wraps these with the per-query detail.
var (
	// ErrBudgetExceeded: the query charged more I/Os than its budget.
	ErrBudgetExceeded = errors.New("topk: I/O budget exceeded")
	// ErrDeadlineExceeded: the wall clock passed the query's deadline.
	ErrDeadlineExceeded = errors.New("topk: deadline exceeded")
	// ErrReplicaUnavailable: under cluster serving (internal/cluster), no
	// replica of some shard produced an answer — every owner failed at
	// the transport layer before the lifecycle limits could even apply.
	ErrReplicaUnavailable = errors.New("topk: replica unavailable")
)

// Outcome classifies how a query under a QueryCtx ended.
type Outcome uint8

const (
	// OutcomeOK: the query completed inside its limits (or ran without
	// any); Items is the exact top-k answer.
	OutcomeOK Outcome = iota
	// OutcomeDegraded: a limit fired and the Max fallback served the
	// top-1 — a correct prefix of the true top-k. Err reports which
	// limit fired.
	OutcomeDegraded
	// OutcomeBudgetExceeded: the I/O budget fired and no fallback was
	// requested; Items is empty and Err wraps ErrBudgetExceeded.
	OutcomeBudgetExceeded
	// OutcomeDeadlineExceeded: the deadline fired and no fallback was
	// requested; Items is empty and Err wraps ErrDeadlineExceeded.
	OutcomeDeadlineExceeded
	// OutcomeUnavailable: under cluster serving, some shard's whole
	// replica group failed before answering, so not even a degraded
	// prefix could be assembled; Items is empty and Err wraps
	// ErrReplicaUnavailable. Single-process paths never produce it.
	OutcomeUnavailable
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeBudgetExceeded:
		return "budget_exceeded"
	case OutcomeDeadlineExceeded:
		return "deadline_exceeded"
	case OutcomeUnavailable:
		return "unavailable"
	default:
		return "unknown"
	}
}

// ParseOutcome maps an Outcome's String() form back to the value. The
// cluster tier ships outcomes between processes as their wire strings,
// and the coordinator needs the typed value back to merge them with
// MergeShardResults, as a single-process sharded index does.
func ParseOutcome(s string) (Outcome, bool) {
	for o := OutcomeOK; o <= OutcomeUnavailable; o++ {
		if o.String() == s {
			return o, true
		}
	}
	return OutcomeOK, false
}

// aborted reports whether the outcome means the full top-k answer was
// not served.
func (o Outcome) aborted() bool { return o != OutcomeOK }

// QueryCtx is the per-query request-lifecycle contract. The zero value
// imposes no limits and adds no overhead: QueryBatchCtx with a zero
// QueryCtx is QueryBatch.
//
// Under a sharded index the deadline is global (one wall clock) while
// the I/O budget applies per shard: shards execute independently against
// disjoint data, and per-shard enforcement is what admission control can
// derive from the per-shard cost series the metrics registry already
// exports.
type QueryCtx struct {
	// Deadline is the wall-clock instant after which the query aborts.
	// Zero means no deadline.
	Deadline time.Time
	// IOBudget caps the EM I/Os (reads+writes, cold private cache) the
	// query may charge. Zero or negative means unbudgeted.
	IOBudget int64
	// DegradeToMax turns an abort into the documented top-1 fallback
	// instead of an empty result.
	DegradeToMax bool
}

// limited reports whether any limit is armed.
func (c QueryCtx) limited() bool { return c.IOBudget > 0 || !c.Deadline.IsZero() }

// WithDeadlineIn returns a copy of c whose deadline is d from now — a
// convenience for per-request timeouts.
func (c QueryCtx) WithDeadlineIn(d time.Duration) QueryCtx {
	c.Deadline = time.Now().Add(d)
	return c
}
