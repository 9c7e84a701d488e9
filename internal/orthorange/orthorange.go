// Package orthorange implements top-k orthogonal range reporting in fixed
// dimension d: elements are weighted points in ℝ^d, a predicate is an
// axis-parallel box, and a top-k query returns the k heaviest points
// inside the box. The 2D case is the problem of Rahul & Tao's companion
// PODS'15 paper and the most-studied multidimensional instance in the
// survey (paper §2).
//
// The building blocks are the shared kd-tree engine of package halfspace
// (boxes are the easiest BoxQuery: interval tests per coordinate), giving
// linear space and an O(n^(1-1/d) + t)-type prioritized query with
// max-weight-pruned max search.
package orthorange

import (
	"fmt"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/halfspace"
)

// Box is the predicate {x : Lo_i ≤ x_i ≤ Hi_i for all i}.
type Box struct {
	Lo, Hi []float64
}

// Valid reports whether the box is well-formed for dimension d.
func (b Box) Valid(d int) bool {
	if len(b.Lo) != d || len(b.Hi) != d {
		return false
	}
	for i := range b.Lo {
		if !(b.Lo[i] <= b.Hi[i]) { // also rejects NaN
			return false
		}
	}
	return true
}

// ContainsPoint implements halfspace.BoxQuery.
func (b Box) ContainsPoint(c []float64) bool {
	for i := range b.Lo {
		if !(b.Lo[i] <= c[i] && c[i] <= b.Hi[i]) { // a NaN bound contains nothing
			return false
		}
	}
	return true
}

// ClassifyBox implements halfspace.BoxQuery.
func (b Box) ClassifyBox(lo, hi []float64) (inside, outside bool) {
	inside = true
	for i := range b.Lo {
		if !(b.Lo[i] <= hi[i] && lo[i] <= b.Hi[i]) {
			return false, true // disjoint in some coordinate, or a NaN bound
		}
		if !(b.Lo[i] <= lo[i] && hi[i] <= b.Hi[i]) {
			inside = false
		}
	}
	return inside, false
}

// Match is the predicate evaluator for the reductions.
func Match(q Box, p halfspace.PtN) bool { return q.ContainsPoint(p.C) }

// Lambda returns the polynomial-boundedness exponent in dimension d:
// outcomes are determined by 2d coordinate ranks, so there are O(n^2d).
func Lambda(d int) float64 { return float64(2 * d) }

// Index answers prioritized, max, and top-k-ready orthogonal range
// queries. It implements core.Prioritized[Box, halfspace.PtN] and
// core.Max[Box, halfspace.PtN].
type Index struct {
	d  int
	kd *halfspace.KDTree
}

// NewIndex builds the structure over items in dimension d.
func NewIndex(items []core.Item[halfspace.PtN], d int, tracker *em.Tracker) (*Index, error) {
	kd, err := halfspace.NewKDTree(items, d, tracker)
	if err != nil {
		return nil, err
	}
	return &Index{d: d, kd: kd}, nil
}

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.kd.N() }

// ReportAbove implements core.Prioritized[Box, halfspace.PtN].
func (ix *Index) ReportAbove(v *em.QueryView, q Box, tau float64, emit func(core.Item[halfspace.PtN]) bool) {
	if !q.Valid(ix.d) {
		return
	}
	ix.kd.ReportAboveBox(v, q, tau, emit)
}

// MaxItem implements core.Max[Box, halfspace.PtN].
func (ix *Index) MaxItem(v *em.QueryView, q Box) (core.Item[halfspace.PtN], bool) {
	if !q.Valid(ix.d) {
		return core.Item[halfspace.PtN]{}, false
	}
	return ix.kd.MaxItemBox(v, q)
}

// NewPrioritizedFactory adapts the index to the reduction factory
// signature for dimension d.
func NewPrioritizedFactory(d int, tracker *em.Tracker) core.PrioritizedFactory[Box, halfspace.PtN] {
	return func(items []core.Item[halfspace.PtN]) core.Prioritized[Box, halfspace.PtN] {
		ix, err := NewIndex(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return ix
	}
}

// NewMaxFactory adapts the max path to the reduction factory signature.
func NewMaxFactory(d int, tracker *em.Tracker) core.MaxFactory[Box, halfspace.PtN] {
	return func(items []core.Item[halfspace.PtN]) core.Max[Box, halfspace.PtN] {
		ix, err := NewIndex(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return ix
	}
}

// NewBox is a convenience constructor that validates its arguments.
func NewBox(lo, hi []float64) (Box, error) {
	b := Box{Lo: lo, Hi: hi}
	if len(lo) != len(hi) {
		return Box{}, fmt.Errorf("orthorange: lo has %d coordinates, hi has %d", len(lo), len(hi))
	}
	if !b.Valid(len(lo)) {
		return Box{}, fmt.Errorf("orthorange: malformed box lo=%v hi=%v", lo, hi)
	}
	return b, nil
}
