// Package circular implements the paper's Corollary 1 (top-k circular
// range reporting) by the standard lifting trick: a point p ∈ ℝ^d maps to
// p' = (p, |p|²) ∈ ℝ^(d+1), and the ball predicate dist(x, q) ≤ r becomes
// a halfspace on the lifted points:
//
//	|x − q|² ≤ r²  ⟺  2q·x − |x|² ≥ |q|² − r².
//
// Every circular structure is therefore a (d+1)-dimensional halfspace
// structure (package halfspace) over the lifted set.
package circular

import (
	"fmt"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/halfspace"
)

// Ball is the predicate {x : dist(x, Center) ≤ R}.
type Ball struct {
	Center []float64
	R      float64
}

// Contains reports whether p (a d-dimensional point) lies in the ball.
func (b Ball) Contains(p []float64) bool {
	s := 0.0
	for i, c := range b.Center {
		d := p[i] - c
		s += d * d
	}
	return s <= b.R*b.R
}

// ContainsPoint implements halfspace.BoxQuery, letting a ball query an
// UNLIFTED kd-tree directly — the alternative to the lifting trick that
// ablation E22 compares against Corollary 1's construction.
func (b Ball) ContainsPoint(c []float64) bool { return b.Contains(c) }

// ClassifyBox implements halfspace.BoxQuery via the min and max distance
// from the ball's center to the axis box.
func (b Ball) ClassifyBox(lo, hi []float64) (inside, outside bool) {
	minD2, maxD2 := 0.0, 0.0
	for i, c := range b.Center {
		nearest := c
		if nearest < lo[i] {
			nearest = lo[i]
		} else if nearest > hi[i] {
			nearest = hi[i]
		}
		dn := nearest - c
		minD2 += dn * dn
		df1, df2 := lo[i]-c, hi[i]-c
		if df1 < 0 {
			df1 = -df1
		}
		if df2 < 0 {
			df2 = -df2
		}
		if df2 > df1 {
			df1 = df2
		}
		maxD2 += df1 * df1
	}
	r2 := b.R * b.R
	return maxD2 <= r2, minD2 > r2
}

// DirectIndex answers circular queries over the ORIGINAL d-dimensional
// points (no lifting): the ball acts directly as a box-classifiable
// predicate on a kd-tree. Ablation E22 compares it with Index.
type DirectIndex struct {
	d  int
	kd *halfspace.KDTree
}

// NewDirectIndex builds the unlifted structure.
func NewDirectIndex(pts [][]float64, weights []float64, d int, tracker *em.Tracker) (*DirectIndex, error) {
	if len(pts) != len(weights) {
		return nil, fmt.Errorf("circular: %d points but %d weights", len(pts), len(weights))
	}
	items := make([]core.Item[halfspace.PtN], len(pts))
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("circular: point %d has %d coordinates in dimension %d", i, len(p), d)
		}
		items[i] = core.Item[halfspace.PtN]{Value: halfspace.PtN{C: p}, Weight: weights[i]}
	}
	kd, err := halfspace.NewKDTree(items, d, tracker)
	if err != nil {
		return nil, err
	}
	return &DirectIndex{d: d, kd: kd}, nil
}

// N returns the number of indexed points.
func (ix *DirectIndex) N() int { return ix.kd.N() }

// ReportAbove implements core.Prioritized[Ball, halfspace.PtN] over
// unlifted points.
func (ix *DirectIndex) ReportAbove(v *em.QueryView, q Ball, tau float64, emit func(core.Item[halfspace.PtN]) bool) {
	ix.kd.ReportAboveBox(v, q, tau, emit)
}

// MaxItem implements core.Max[Ball, halfspace.PtN] over unlifted points.
func (ix *DirectIndex) MaxItem(v *em.QueryView, q Ball) (core.Item[halfspace.PtN], bool) {
	return ix.kd.MaxItemBox(v, q)
}

// Lift maps a d-dimensional point to its (d+1)-dimensional lift.
func Lift(p []float64) halfspace.PtN {
	c := make([]float64, len(p)+1)
	norm2 := 0.0
	for i, v := range p {
		c[i] = v
		norm2 += v * v
	}
	c[len(p)] = norm2
	return halfspace.PtN{C: c}
}

// Unlift recovers the original point from a lifted one.
func Unlift(p halfspace.PtN) []float64 {
	return p.C[:len(p.C)-1]
}

// LiftBall maps a ball predicate to the equivalent lifted halfspace.
func LiftBall(b Ball) halfspace.Halfspace {
	d := len(b.Center)
	a := make([]float64, d+1)
	n2 := 0.0
	for i, c := range b.Center {
		a[i] = 2 * c
		n2 += c * c
	}
	a[d] = -1 // coefficient of the |x|² coordinate
	return halfspace.Halfspace{A: a, C: n2 - b.R*b.R}
}

// Match is the predicate evaluator on lifted points, for the reductions.
// It is LiftBall(q).Contains(p) evaluated in place, with no allocation
// per test: the dot product accumulates in PtN.Dot's order and the
// threshold is Σcᵢ² − r², so every comparison is bit-identical to the
// lifted halfspace's.
func Match(q Ball, p halfspace.PtN) bool {
	d := len(q.Center)
	dot, n2 := 0.0, 0.0
	for i, c := range q.Center {
		dot += 2 * c * p.C[i]
		n2 += c * c
	}
	dot += -1 * p.C[d]
	return dot >= n2-q.R*q.R
}

// Lambda returns the polynomial-boundedness exponent in dimension d:
// circular outcomes correspond to lifted halfspace outcomes in d+1.
func Lambda(d int) float64 { return float64(d + 1) }

// Index answers circular queries over a static point set by querying a
// lifted kd-tree. It implements core.Prioritized[Ball, halfspace.PtN] and
// core.Max[Ball, halfspace.PtN].
type Index struct {
	d  int
	kd *halfspace.KDTree
}

// NewIndex builds the lifted structure over d-dimensional points carried
// as values (pts[i] has weight weights[i]; weights must be distinct).
func NewIndex(pts [][]float64, weights []float64, d int, tracker *em.Tracker) (*Index, error) {
	if len(pts) != len(weights) {
		return nil, fmt.Errorf("circular: %d points but %d weights", len(pts), len(weights))
	}
	items := make([]core.Item[halfspace.PtN], len(pts))
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("circular: point %d has %d coordinates in dimension %d", i, len(p), d)
		}
		items[i] = core.Item[halfspace.PtN]{Value: Lift(p), Weight: weights[i]}
	}
	kd, err := halfspace.NewKDTree(items, d+1, tracker)
	if err != nil {
		return nil, err
	}
	return &Index{d: d, kd: kd}, nil
}

// NewIndexFromItems builds the lifted structure from pre-lifted items (as
// produced by the factories below).
func NewIndexFromItems(items []core.Item[halfspace.PtN], d int, tracker *em.Tracker) (*Index, error) {
	kd, err := halfspace.NewKDTree(items, d+1, tracker)
	if err != nil {
		return nil, err
	}
	return &Index{d: d, kd: kd}, nil
}

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.kd.N() }

// ReportAbove implements core.Prioritized[Ball, halfspace.PtN].
func (ix *Index) ReportAbove(v *em.QueryView, q Ball, tau float64, emit func(core.Item[halfspace.PtN]) bool) {
	ix.kd.ReportAbove(v, LiftBall(q), tau, emit)
}

// MaxItem implements core.Max[Ball, halfspace.PtN].
func (ix *Index) MaxItem(v *em.QueryView, q Ball) (core.Item[halfspace.PtN], bool) {
	return ix.kd.MaxItem(v, LiftBall(q))
}

// NewPrioritizedFactory adapts the index to the reduction factory
// signature (items are lifted points).
func NewPrioritizedFactory(d int, tracker *em.Tracker) core.PrioritizedFactory[Ball, halfspace.PtN] {
	return func(items []core.Item[halfspace.PtN]) core.Prioritized[Ball, halfspace.PtN] {
		ix, err := NewIndexFromItems(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return ix
	}
}

// NewMaxFactory adapts the index max path to the reduction factory
// signature.
func NewMaxFactory(d int, tracker *em.Tracker) core.MaxFactory[Ball, halfspace.PtN] {
	return func(items []core.Item[halfspace.PtN]) core.Max[Ball, halfspace.PtN] {
		ix, err := NewIndexFromItems(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return ix
	}
}
