// Package enclosure implements the building blocks of the paper's
// Theorem 5 (top-k 2D point enclosure): elements are weighted axis-parallel
// rectangles, a predicate is a point q ∈ ℝ², and a rectangle satisfies q
// when it contains q — the paper's dating-website query ("the 10 gentlemen
// with the highest salaries whose preferred age and height ranges contain
// mine").
//
// Both structures follow Section 5.2's pattern: a segment tree over the
// x-projections, with a 1D stabbing structure on the y-intervals at every
// node. A query descends the root-to-leaf path of q.x and stabs each
// node's y-structure with q.y:
//
//   - Prioritized: per-node dynamic interval trees (package interval) —
//     O(n log n) space, O(log² n + t)-style query (the paper cites
//     Rahul '15 at O(n log* n) space; see DESIGN.md's substitution table);
//   - Max: per-node folklore 1D stabbing-max structures — O(n log n)
//     space, O(log n · log_B n) I/Os (the paper reaches O(log n) with
//     fractional cascading, which we omit and document).
package enclosure

import (
	"fmt"
	"math"
	"sort"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/interval"
)

// Rect is a closed axis-parallel rectangle [X1, X2] × [Y1, Y2].
type Rect struct {
	X1, X2, Y1, Y2 float64
}

// Valid reports whether the rectangle is well-formed.
func (r Rect) Valid() bool {
	return !math.IsNaN(r.X1) && !math.IsNaN(r.X2) && !math.IsNaN(r.Y1) && !math.IsNaN(r.Y2) &&
		r.X1 <= r.X2 && r.Y1 <= r.Y2
}

// Contains reports whether the rectangle contains the point q.
func (r Rect) Contains(q Pt2) bool {
	return r.X1 <= q.X && q.X <= r.X2 && r.Y1 <= q.Y && q.Y <= r.Y2
}

// Pt2 is a query point in ℝ².
type Pt2 struct {
	X, Y float64
}

// Match is the predicate evaluator for the reductions.
func Match(q Pt2, r Rect) bool { return r.Contains(q) }

// Lambda is the polynomial-boundedness exponent: outcomes are determined
// by the x-region and y-region of the query among the 2n+1 regions each,
// so there are O(n²) of them.
const Lambda = 2

// rectVal adapts a rectangle's y-projection to the interval package.
type rectVal struct {
	r Rect
}

// Span returns the y-projection.
func (v rectVal) Span() interval.Interval { return interval.Interval{Lo: v.r.Y1, Hi: v.r.Y2} }

// segTree is the shared x-skeleton: a segment tree over doubled endpoint
// coordinates (2i = the endpoint xs[i] itself, 2i+1 = the open gap after
// it), so closed x-boundaries are handled exactly.
type segTree[P any] struct {
	xs   []float64
	root *snode[P]
}

type snode[P any] struct {
	a, b        int // elementary coordinate range [a, b)
	items       []core.Item[rectVal]
	payload     P
	left, right *snode[P]
}

func buildSeg[P any](items []core.Item[Rect]) *segTree[P] {
	xs := make([]float64, 0, 2*len(items))
	for _, it := range items {
		xs = append(xs, it.Value.X1, it.Value.X2)
	}
	sort.Float64s(xs)
	xs = dedup(xs)
	t := &segTree[P]{xs: xs}
	if len(xs) == 0 {
		return t
	}
	t.root = makeNodes[P](0, 2*len(xs))
	for _, it := range items {
		lo := 2 * sort.SearchFloat64s(xs, it.Value.X1)
		hi := 2*sort.SearchFloat64s(xs, it.Value.X2) + 1 // half-open
		wrapped := core.Item[rectVal]{Value: rectVal{r: it.Value}, Weight: it.Weight}
		t.root.assign(lo, hi, wrapped)
	}
	return t
}

func dedup(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func makeNodes[P any](a, b int) *snode[P] {
	nd := &snode[P]{a: a, b: b}
	if b-a > 1 {
		mid := (a + b) / 2
		nd.left = makeNodes[P](a, mid)
		nd.right = makeNodes[P](mid, b)
	}
	return nd
}

// assign stores the item at the canonical nodes covering [lo, hi).
func (nd *snode[P]) assign(lo, hi int, it core.Item[rectVal]) {
	if lo <= nd.a && nd.b <= hi {
		nd.items = append(nd.items, it)
		return
	}
	mid := (nd.a + nd.b) / 2
	if lo < mid {
		nd.left.assign(lo, hi, it)
	}
	if hi > mid {
		nd.right.assign(lo, hi, it)
	}
}

// elemCoord maps a query x to its elementary coordinate, or -1 when x
// precedes every endpoint (no rectangle can contain it).
func (t *segTree[P]) elemCoord(x float64) int {
	i := sort.SearchFloat64s(t.xs, x)
	if i < len(t.xs) && t.xs[i] == x {
		return 2 * i
	}
	if i == 0 {
		return -1
	}
	return 2*(i-1) + 1
}

// walk visits the payloads along the root-to-leaf path of elementary
// coordinate c, stopping early if visit returns false. It returns the
// number of path nodes touched.
func (t *segTree[P]) walk(c int, visit func(P) bool) int {
	nodes := 0
	nd := t.root
	for nd != nil {
		nodes++
		if !visit(nd.payload) {
			return nodes
		}
		if nd.b-nd.a <= 1 {
			break
		}
		if mid := (nd.a + nd.b) / 2; c < mid {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nodes
}

// finalize builds every node's payload from its item list and drops the
// build-time lists.
func (t *segTree[P]) finalize(build func(items []core.Item[rectVal]) P) {
	var rec func(nd *snode[P])
	rec = func(nd *snode[P]) {
		if nd == nil {
			return
		}
		nd.payload = build(nd.items)
		nd.items = nil
		rec(nd.left)
		rec(nd.right)
	}
	rec(t.root)
}

func validate(items []core.Item[Rect]) error {
	if dup, ok := core.CheckDistinctWeights(items); !ok {
		return fmt.Errorf("enclosure: duplicate weight %v", dup)
	}
	for _, it := range items {
		if !it.Value.Valid() {
			return fmt.Errorf("enclosure: malformed rectangle %+v", it.Value)
		}
	}
	return nil
}

// Prioritized answers prioritized point-enclosure queries.
type Prioritized struct {
	t       *segTree[*interval.Tree[rectVal]]
	tracker *em.Tracker
	n       int
}

// NewPrioritized builds the structure; tracker may be nil.
func NewPrioritized(items []core.Item[Rect], tracker *em.Tracker) (*Prioritized, error) {
	if err := validate(items); err != nil {
		return nil, err
	}
	p := &Prioritized{tracker: tracker, n: len(items)}
	p.t = buildSeg[*interval.Tree[rectVal]](items)
	p.t.finalize(func(sub []core.Item[rectVal]) *interval.Tree[rectVal] {
		tr, err := interval.NewTree(sub, tracker)
		if err != nil {
			panic(err) // inputs already validated
		}
		return tr
	})
	return p, nil
}

// N returns the number of indexed rectangles.
func (p *Prioritized) N() int { return p.n }

// ReportAbove implements core.Prioritized[Pt2, Rect]: emit every rectangle
// containing q with weight ≥ tau.
func (p *Prioritized) ReportAbove(v *em.QueryView, q Pt2, tau float64, emit func(core.Item[Rect]) bool) {
	c := p.t.elemCoord(q.X)
	if c < 0 || p.t.root == nil {
		return
	}
	stopped := false
	nodes := p.t.walk(c, func(tr *interval.Tree[rectVal]) bool {
		tr.ReportAbove(v, q.Y, tau, func(it core.Item[rectVal]) bool {
			if !emit(core.Item[Rect]{Value: it.Value.r, Weight: it.Weight}) {
				stopped = true
				return false
			}
			return true
		})
		return !stopped
	})
	if p.tracker != nil {
		p.tracker.PathCost(v, nodes)
	}
}

// Max answers point-enclosure max queries (2D stabbing max, §5.2).
type Max struct {
	t       *segTree[*interval.StabMax1D[rectVal]]
	tracker *em.Tracker
	n       int
}

// NewMax builds the structure; tracker may be nil.
func NewMax(items []core.Item[Rect], tracker *em.Tracker) (*Max, error) {
	if err := validate(items); err != nil {
		return nil, err
	}
	m := &Max{tracker: tracker, n: len(items)}
	m.t = buildSeg[*interval.StabMax1D[rectVal]](items)
	m.t.finalize(func(sub []core.Item[rectVal]) *interval.StabMax1D[rectVal] {
		s, err := interval.NewStabMax1D(sub, tracker)
		if err != nil {
			panic(err)
		}
		return s
	})
	return m, nil
}

// N returns the number of indexed rectangles.
func (m *Max) N() int { return m.n }

// MaxItem implements core.Max[Pt2, Rect].
func (m *Max) MaxItem(v *em.QueryView, q Pt2) (core.Item[Rect], bool) {
	c := m.t.elemCoord(q.X)
	if c < 0 || m.t.root == nil {
		return core.Item[Rect]{}, false
	}
	best := core.Item[Rect]{Weight: math.Inf(-1)}
	found := false
	nodes := m.t.walk(c, func(s *interval.StabMax1D[rectVal]) bool {
		if it, ok := s.MaxItem(v, q.Y); ok && it.Weight > best.Weight {
			best = core.Item[Rect]{Value: it.Value.r, Weight: it.Weight}
			found = true
		}
		return true
	})
	if m.tracker != nil {
		m.tracker.PathCost(v, nodes)
	}
	if !found {
		return core.Item[Rect]{}, false
	}
	return best, true
}

// NewPrioritizedFactory adapts the constructor to the reduction factory
// signature; build errors panic (subsets of validated inputs).
func NewPrioritizedFactory(tracker *em.Tracker) core.PrioritizedFactory[Pt2, Rect] {
	return func(items []core.Item[Rect]) core.Prioritized[Pt2, Rect] {
		s, err := NewPrioritized(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// NewMaxFactory adapts NewMax to the reduction factory signature.
func NewMaxFactory(tracker *em.Tracker) core.MaxFactory[Pt2, Rect] {
	return func(items []core.Item[Rect]) core.Max[Pt2, Rect] {
		s, err := NewMax(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}
