package halfspace

import (
	"fmt"
	"math"
	"sort"

	"topk/internal/core"
	"topk/internal/em"
)

// PtN is a point in ℝ^d for arbitrary fixed d.
type PtN struct {
	C []float64
}

// Dot returns the inner product with a (len(a) must equal the dimension).
func (p PtN) Dot(a []float64) float64 {
	s := 0.0
	for i, c := range p.C {
		s += a[i] * c
	}
	return s
}

// Halfspace is the predicate {x : A·x ≥ C} in ℝ^d.
type Halfspace struct {
	A []float64
	C float64
}

// Contains reports whether p lies in the halfspace.
func (h Halfspace) Contains(p PtN) bool { return p.Dot(h.A) >= h.C }

// ContainsPoint implements BoxQuery.
func (h Halfspace) ContainsPoint(c []float64) bool { return PtN{C: c}.Dot(h.A) >= h.C }

// ClassifyBox implements BoxQuery: the extrema of A·x over an axis box are
// attained at corners chosen coordinate-wise by the sign of A.
func (h Halfspace) ClassifyBox(lo, hi []float64) (inside, outside bool) {
	min, max := 0.0, 0.0
	for i, a := range h.A {
		p, q := a*lo[i], a*hi[i]
		if p > q {
			p, q = q, p
		}
		min += p
		max += q
	}
	return min >= h.C, max < h.C
}

// BoxQuery is a predicate region that can classify axis-aligned boxes,
// letting one kd-tree engine serve halfspaces, orthogonal ranges, and
// balls alike.
type BoxQuery interface {
	// ClassifyBox reports whether the box [lo, hi] lies fully inside the
	// region, or fully outside it (both false means it straddles the
	// boundary).
	ClassifyBox(lo, hi []float64) (inside, outside bool)
	// ContainsPoint reports whether a single point lies in the region.
	ContainsPoint(c []float64) bool
}

// MatchN is the predicate evaluator for the reductions.
func MatchN(q Halfspace, p PtN) bool { return q.Contains(p) }

// LambdaN returns the polynomial-boundedness exponent in dimension d:
// outcomes are cut off by hyperplanes through ≤ d input points, so there
// are O(n^d) of them.
func LambdaN(d int) float64 { return float64(d) }

// KDTree answers prioritized halfspace queries in ℝ^d with a kd-tree
// carrying bounding boxes and max-weight subtree augmentation. It stands
// in for the partition trees of Afshani–Chan / Agarwal et al. (see
// DESIGN.md): linear space, and a query term that grows as ~n^(1-1/d)
// (kd-tree crossing bound) plus output.
//
// KDTree implements core.Prioritized[Halfspace, PtN] and
// core.Max[Halfspace, PtN].
type KDTree struct {
	d       int
	n       int
	root    *kdnode
	tracker *em.Tracker
}

type kdnode struct {
	item        core.Item[PtN]
	dim         int
	lo, hi      []float64 // subtree bounding box
	maxW        float64
	size        int
	left, right *kdnode
}

// NewKDTree builds a kd-tree over items in dimension d. tracker may be
// nil.
func NewKDTree(items []core.Item[PtN], d int, tracker *em.Tracker) (*KDTree, error) {
	if d < 1 {
		return nil, fmt.Errorf("halfspace: dimension %d", d)
	}
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	for _, it := range items {
		if len(it.Value.C) != d {
			return nil, fmt.Errorf("halfspace: point with %d coordinates in dimension %d", len(it.Value.C), d)
		}
	}
	t := &KDTree{d: d, n: len(items), tracker: tracker}
	buf := make([]core.Item[PtN], len(items))
	copy(buf, items)
	t.root = t.build(buf, 0)
	if tracker != nil && len(items) > 0 {
		// One node per point: coordinates, weight, and a 2d-word box.
		tracker.AllocRun(int(em.BlocksFor(len(items), 3*d+4, tracker.B())))
	}
	return t, nil
}

func (t *KDTree) build(items []core.Item[PtN], depth int) *kdnode {
	if len(items) == 0 {
		return nil
	}
	dim := depth % t.d
	mid := len(items) / 2
	// Median split along dim (nth-element style partial sort).
	sort.Slice(items, func(i, j int) bool { return items[i].Value.C[dim] < items[j].Value.C[dim] })
	nd := &kdnode{
		item: items[mid],
		dim:  dim,
		lo:   make([]float64, t.d),
		hi:   make([]float64, t.d),
		size: len(items),
		maxW: math.Inf(-1),
	}
	for i := range nd.lo {
		nd.lo[i] = math.Inf(1)
		nd.hi[i] = math.Inf(-1)
	}
	for _, it := range items {
		if it.Weight > nd.maxW {
			nd.maxW = it.Weight
		}
		for i, c := range it.Value.C {
			if c < nd.lo[i] {
				nd.lo[i] = c
			}
			if c > nd.hi[i] {
				nd.hi[i] = c
			}
		}
	}
	nd.left = t.build(items[:mid], depth+1)
	nd.right = t.build(items[mid+1:], depth+1)
	return nd
}

// N returns the number of indexed points.
func (t *KDTree) N() int { return t.n }

// ReportAbove implements core.Prioritized[Halfspace, PtN].
func (t *KDTree) ReportAbove(v *em.QueryView, q Halfspace, tau float64, emit func(core.Item[PtN]) bool) {
	t.ReportAboveBox(v, q, tau, emit)
}

// ReportAboveBox answers a prioritized query for any box-classifiable
// predicate region (halfspaces, orthogonal boxes, balls, ...), charging v.
func (t *KDTree) ReportAboveBox(v *em.QueryView, q BoxQuery, tau float64, emit func(core.Item[PtN]) bool) {
	// visited is a per-query local so concurrent queries never share state.
	var visited int64
	emitted := 0
	defer func() {
		if t.tracker != nil {
			// Visits attributable to emission (fully-inside subtrees) are
			// paid by the packed output scan; the residual frontier pays
			// the tree-walk cost.
			search := int(visited) - 2*emitted
			if search < 0 {
				search = 0
			}
			t.tracker.PathCost(v, search)
			t.tracker.ScanCost(v, emitted)
		}
	}()
	wrapped := func(it core.Item[PtN]) bool {
		emitted++
		return emit(it)
	}
	t.report(t.root, q, tau, wrapped, &visited)
}

func (t *KDTree) report(nd *kdnode, q BoxQuery, tau float64, emit func(core.Item[PtN]) bool, visited *int64) bool {
	if nd == nil || nd.maxW < tau {
		return true
	}
	*visited++
	inside, outside := q.ClassifyBox(nd.lo, nd.hi)
	if outside {
		return true // box entirely outside
	}
	if inside {
		return t.reportSubtree(nd, tau, emit, visited) // box entirely inside
	}
	if nd.item.Weight >= tau && q.ContainsPoint(nd.item.Value.C) {
		if !emit(nd.item) {
			return false
		}
	}
	if !t.report(nd.left, q, tau, emit, visited) {
		return false
	}
	return t.report(nd.right, q, tau, emit, visited)
}

// reportSubtree emits everything with weight ≥ tau, geometry-free.
func (t *KDTree) reportSubtree(nd *kdnode, tau float64, emit func(core.Item[PtN]) bool, visited *int64) bool {
	if nd == nil || nd.maxW < tau {
		return true
	}
	*visited++
	if nd.item.Weight >= tau {
		if !emit(nd.item) {
			return false
		}
	}
	if !t.reportSubtree(nd.left, tau, emit, visited) {
		return false
	}
	return t.reportSubtree(nd.right, tau, emit, visited)
}

// MaxItem implements core.Max[Halfspace, PtN] by branch-and-bound on the
// max-weight augmentation.
func (t *KDTree) MaxItem(v *em.QueryView, q Halfspace) (core.Item[PtN], bool) {
	return t.MaxItemBox(v, q)
}

// MaxItemBox answers a max query for any box-classifiable predicate,
// charging v.
func (t *KDTree) MaxItemBox(v *em.QueryView, q BoxQuery) (core.Item[PtN], bool) {
	var visited int64
	best := core.Item[PtN]{Weight: math.Inf(-1)}
	found := false
	t.maxSearch(t.root, q, &best, &found, &visited)
	if t.tracker != nil {
		t.tracker.PathCost(v, int(visited))
	}
	return best, found
}

func (t *KDTree) maxSearch(nd *kdnode, q BoxQuery, best *core.Item[PtN], found *bool, visited *int64) {
	if nd == nil || nd.maxW <= best.Weight {
		return
	}
	*visited++
	inside, outside := q.ClassifyBox(nd.lo, nd.hi)
	if outside {
		return
	}
	if inside {
		// Entire box inside: the subtree's max-weight item wins.
		it := t.findMaxW(nd, visited)
		if it.Weight > best.Weight {
			*best, *found = it, true
		}
		return
	}
	if q.ContainsPoint(nd.item.Value.C) && nd.item.Weight > best.Weight {
		*best, *found = nd.item, true
	}
	// Descend the heavier side first for stronger pruning.
	a, b := nd.left, nd.right
	if b != nil && (a == nil || b.maxW > a.maxW) {
		a, b = b, a
	}
	t.maxSearch(a, q, best, found, visited)
	t.maxSearch(b, q, best, found, visited)
}

func (t *KDTree) findMaxW(nd *kdnode, visited *int64) core.Item[PtN] {
	for {
		*visited++
		if nd.item.Weight == nd.maxW {
			return nd.item
		}
		if nd.left != nil && nd.left.maxW == nd.maxW {
			nd = nd.left
			continue
		}
		nd = nd.right
	}
}

// NewKDPrioritizedFactory adapts the constructor to the reduction factory
// signature for dimension d.
func NewKDPrioritizedFactory(d int, tracker *em.Tracker) core.PrioritizedFactory[Halfspace, PtN] {
	return func(items []core.Item[PtN]) core.Prioritized[Halfspace, PtN] {
		s, err := NewKDTree(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// NewKDMaxFactory adapts the kd max path to the reduction factory
// signature for dimension d.
func NewKDMaxFactory(d int, tracker *em.Tracker) core.MaxFactory[Halfspace, PtN] {
	return func(items []core.Item[PtN]) core.Max[Halfspace, PtN] {
		s, err := NewKDTree(items, d, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}
