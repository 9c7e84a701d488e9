package core

import (
	"sync/atomic"

	"topk/internal/em"
)

// This file implements a reusable combinator the paper's Section 5 applies
// twice (Sections 5.3 and 5.4): turning an *emptiness* structure — "does
// any element of the set satisfy q?" — into a *max-reporting* structure.
//
// The paper materializes the "winner regions" ρ_i induced by the
// weight-descending prefixes and locates the query point among them. The
// combinator here realizes the same prefix-search idea structurally: a
// binary tree over the weight-sorted elements where every node carries an
// emptiness structure over its contiguous weight range. A max query
// descends from the root, at each step asking whether the heavier child
// contains a satisfying element. This finds the heaviest satisfying
// element in O(log n) emptiness queries, with
// Σ_node S_emp(m_node) = O(log n · S_emp-per-element) space.
//
// (This mirrors the Aronov–Har-Peled connection the paper cites: emptiness
// powers approximate rank; here a hierarchy of emptiness structures powers
// exact max.)

// Emptiness answers "is there any element satisfying q?" over a fixed set,
// charging its I/Os to v.
type Emptiness[Q any] interface {
	NonEmpty(v *em.QueryView, q Q) bool
}

// EmptinessFactory builds an emptiness structure over a subset of items.
type EmptinessFactory[Q, V any] func(items []Item[V]) Emptiness[Q]

// MaxFromEmptiness is a max-reporting structure built from emptiness
// structures. It implements Max[Q, V].
type MaxFromEmptiness[Q, V any] struct {
	tracker *em.Tracker
	root    *meNode[Q, V]
	n       int
	// emptinessQueries counts NonEmpty probes, ~2 log₂ n per MaxItem;
	// atomic because queries may run concurrently.
	emptinessQueries atomic.Int64
}

type meNode[Q, V any] struct {
	empt Emptiness[Q]
	// Leaves hold the single item; internal nodes hold children with
	// heavy = the heavier half of the node's weight range.
	item         Item[V]
	heavy, light *meNode[Q, V]
}

// NewMaxFromEmptiness builds the combinator over items (any order; they
// are sorted internally). newEmpt is invoked once per tree node, on the
// node's weight-contiguous subset.
func NewMaxFromEmptiness[Q, V any](
	items []Item[V],
	newEmpt EmptinessFactory[Q, V],
	tracker *em.Tracker,
) *MaxFromEmptiness[Q, V] {
	sorted := make([]Item[V], len(items))
	copy(sorted, items)
	SortByWeightDesc(sorted)
	m := &MaxFromEmptiness[Q, V]{tracker: tracker, n: len(sorted)}
	m.root = m.build(sorted, newEmpt)
	return m
}

func (m *MaxFromEmptiness[Q, V]) build(sorted []Item[V], newEmpt EmptinessFactory[Q, V]) *meNode[Q, V] {
	if len(sorted) == 0 {
		return nil
	}
	nd := &meNode[Q, V]{empt: newEmpt(sorted)}
	if len(sorted) == 1 {
		nd.item = sorted[0]
		return nd
	}
	mid := len(sorted) / 2
	nd.heavy = m.build(sorted[:mid], newEmpt)
	nd.light = m.build(sorted[mid:], newEmpt)
	return nd
}

// MaxItem returns the heaviest item satisfying q.
func (m *MaxFromEmptiness[Q, V]) MaxItem(v *em.QueryView, q Q) (Item[V], bool) {
	nd := m.root
	if nd == nil || !m.probe(v, nd, q) {
		return Item[V]{}, false
	}
	for nd.heavy != nil {
		if m.probe(v, nd.heavy, q) {
			nd = nd.heavy
		} else {
			nd = nd.light
		}
	}
	return nd.item, true
}

func (m *MaxFromEmptiness[Q, V]) probe(v *em.QueryView, nd *meNode[Q, V], q Q) bool {
	m.emptinessQueries.Add(1)
	return nd.empt.NonEmpty(v, q)
}

// EmptinessQueries returns the number of NonEmpty probes issued so far.
func (m *MaxFromEmptiness[Q, V]) EmptinessQueries() int64 {
	return m.emptinessQueries.Load()
}

// N returns the number of indexed items.
func (m *MaxFromEmptiness[Q, V]) N() int { return m.n }
