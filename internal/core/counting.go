package core

import (
	"math"
	"sync/atomic"

	"topk/internal/em"
)

// This file implements the OTHER prior-work reduction the paper surveys
// (Section 2): Rahul–Janardan's conversion of top-k reporting to
// (approximate) counting plus conventional reporting,
//
//	S_top(n) = O((S_rep(n) + S_cnt(n)) · log n)
//	Q_top(n) = O((Q_rep(n) + Q_cnt(n)) · log n) + O(k/B).
//
// Construction: a balanced binary tree over the weight-descending order;
// every node holds a counting structure and a reporting structure over its
// contiguous weight range. A top-k query descends from the root: if the
// heavier child contains ≥ k satisfying elements, recurse into it;
// otherwise report the heavier child entirely and continue into the
// lighter child for the remainder.
//
// The counting structure may over-approximate by a constant factor (the
// paper's improvement over exact counting): the query algorithm recovers
// from an optimistic descent by filling the shortfall from the lighter
// sibling, preserving correctness for any over-approximation.

// Counting answers (approximate) counting queries, charging its I/Os to
// v: Count must return a value in [|q(S)|, c·|q(S)|] for a constant c ≥ 1.
type Counting[Q any] interface {
	Count(v *em.QueryView, q Q) int
}

// CountingFactory builds a counting structure over a subset of items.
type CountingFactory[Q, V any] func(items []Item[V]) Counting[Q]

// CountingBaseline is the counting+reporting top-k structure of [28] as
// surveyed in the paper's Section 2. It implements TopK[Q, V].
type CountingBaseline[Q, V any] struct {
	tracker *em.Tracker
	root    *cbNode[Q, V]
	n       int
	// countQueries instruments the number of counting probes
	// (~log₂ n per top-k query); atomic because queries may run
	// concurrently.
	countQueries atomic.Int64
}

type cbNode[Q, V any] struct {
	cnt          Counting[Q]
	rep          Prioritized[Q, V]
	size         int
	heavy, light *cbNode[Q, V]
}

// NewCountingBaseline builds the structure over items. newCnt and newRep
// are invoked once per tree node on its weight-contiguous subset.
func NewCountingBaseline[Q, V any](
	items []Item[V],
	newCnt CountingFactory[Q, V],
	newRep PrioritizedFactory[Q, V],
	tracker *em.Tracker,
) (*CountingBaseline[Q, V], error) {
	if err := ValidateWeights(items); err != nil {
		return nil, err
	}
	sorted := make([]Item[V], len(items))
	copy(sorted, items)
	SortByWeightDesc(sorted)
	c := &CountingBaseline[Q, V]{tracker: tracker, n: len(items)}
	c.root = c.build(sorted, newCnt, newRep)
	return c, nil
}

func (c *CountingBaseline[Q, V]) build(
	sorted []Item[V],
	newCnt CountingFactory[Q, V],
	newRep PrioritizedFactory[Q, V],
) *cbNode[Q, V] {
	if len(sorted) == 0 {
		return nil
	}
	nd := &cbNode[Q, V]{
		cnt:  newCnt(sorted),
		rep:  newRep(sorted),
		size: len(sorted),
	}
	if len(sorted) > 1 {
		mid := len(sorted) / 2
		nd.heavy = c.build(sorted[:mid], newCnt, newRep)
		nd.light = c.build(sorted[mid:], newCnt, newRep)
	}
	return nd
}

// N returns the number of indexed items.
func (c *CountingBaseline[Q, V]) N() int { return c.n }

// CountQueries returns the number of counting probes issued so far.
func (c *CountingBaseline[Q, V]) CountQueries() int64 { return c.countQueries.Load() }

// TopK answers a top-k query, weight-descending.
func (c *CountingBaseline[Q, V]) TopK(v *em.QueryView, q Q, k int) []Item[V] {
	if k <= 0 || c.root == nil {
		return nil
	}
	var out []Item[V]
	c.collect(v, c.root, q, k, &out)
	if c.tracker != nil {
		c.tracker.ScanCost(v, len(out))
	}
	return TopKOf(out, k)
}

// collect gathers at least min(k, |q(subtree)|) of the heaviest satisfying
// items of the subtree into out, returning how many it added.
func (c *CountingBaseline[Q, V]) collect(v *em.QueryView, nd *cbNode[Q, V], q Q, k int, out *[]Item[V]) int {
	if nd == nil || k <= 0 {
		return 0
	}
	if nd.heavy == nil { // single-item node: report it if it satisfies q
		added := 0
		nd.rep.ReportAbove(v, q, math.Inf(-1), func(it Item[V]) bool {
			*out = append(*out, it)
			added++
			return true
		})
		return added
	}
	c.countQueries.Add(2) // this probe plus the heavy child's
	got := 0
	if nd.heavy.cnt.Count(v, q) >= k {
		// The (possibly over-approximate) count promises enough heavy
		// items; on a shortfall, fall through to the lighter child.
		got = c.collect(v, nd.heavy, q, k, out)
	} else {
		// Cheaper to drain the heavy child entirely.
		nd.heavy.rep.ReportAbove(v, q, math.Inf(-1), func(it Item[V]) bool {
			*out = append(*out, it)
			got++
			return true
		})
	}
	if got < k {
		got += c.collect(v, nd.light, q, k-got, out)
	}
	return got
}
