package enclosure

import (
	"math"

	"topk/internal/cascade"
	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/interval"
)

// MaxCascade is the fractional-cascading variant of Max, realizing the
// paper's Section 5.2 remark: the per-node 1D stabbing-max queries along
// the segment-tree path are all predecessor searches for the same q.y, so
// cascading bridges reduce them to one O(log n) search at the root plus
// O(1) work per node — query O(log n) instead of O(log n · log_B n).
// Space grows by the cascading catalogs (a constant factor of the
// boundary lists). Experiment E19 measures the trade.
type MaxCascade struct {
	t       *segTree[*interval.StabMax1D[rectVal]]
	casc    *cascade.Node
	tracker *em.Tracker
	n       int
}

// NewMaxCascade builds the cascaded max structure; tracker may be nil.
func NewMaxCascade(items []core.Item[Rect], tracker *em.Tracker) (*MaxCascade, error) {
	if err := validate(items); err != nil {
		return nil, err
	}
	m := &MaxCascade{tracker: tracker, n: len(items)}
	m.t = buildSeg[*interval.StabMax1D[rectVal]](items)
	m.t.finalize(func(sub []core.Item[rectVal]) *interval.StabMax1D[rectVal] {
		s, err := interval.NewStabMax1D(sub, tracker)
		if err != nil {
			panic(err)
		}
		return s
	})
	m.casc = cascade.Build(cascadeInput(m.t.root))
	if tracker != nil && m.casc != nil {
		// The augmented catalogs occupy ~4 words per entry.
		total := 0
		total = catalogTotal(m.casc)
		if total > 0 {
			tracker.AllocRun(int(em.BlocksFor(total, 4, tracker.B())))
		}
	}
	return m, nil
}

func cascadeInput(nd *snode[*interval.StabMax1D[rectVal]]) *cascade.Input {
	if nd == nil {
		return nil
	}
	in := &cascade.Input{Keys: nd.payload.Boundaries()}
	in.Left = cascadeInput(nd.left)
	in.Right = cascadeInput(nd.right)
	return in
}

// N returns the number of indexed rectangles.
func (m *MaxCascade) N() int { return m.n }

// MaxItem implements core.Max[Pt2, Rect] with one cascaded descent.
func (m *MaxCascade) MaxItem(v *em.QueryView, q Pt2) (core.Item[Rect], bool) {
	c := m.t.elemCoord(q.X)
	if c < 0 || m.t.root == nil || m.casc == nil {
		return core.Item[Rect]{}, false
	}
	if m.tracker != nil {
		// One root binary search over the augmented catalog …
		m.tracker.PathCost(v, log2ceil(m.casc.CatalogLen()+1))
	}
	best := core.Item[Rect]{Weight: math.Inf(-1)}
	found := false

	cur := m.casc.Search(q.Y)
	nd := m.t.root
	nodes := 0
	for nd != nil && cur.Valid() {
		nodes++
		sm := nd.payload
		if i := cur.OwnPred(); i >= 0 {
			exact := sm.Boundaries()[i] == q.Y
			if it, ok := sm.AnswerAt(v, i, exact); ok && it.Weight > best.Weight {
				best = unwrapRect(it)
				found = true
			}
		}
		if nd.b-nd.a <= 1 {
			break
		}
		if mid := (nd.a + nd.b) / 2; c < mid {
			nd, cur = nd.left, cur.Left()
		} else {
			nd, cur = nd.right, cur.Right()
		}
	}
	if m.tracker != nil {
		// … then O(1) bridge work per level (answer-block reads are
		// charged by AnswerAt itself).
		m.tracker.PathCost(v, nodes)
	}
	if !found {
		return core.Item[Rect]{}, false
	}
	return best, true
}

// unwrapRect recovers the full rectangle payload from the stabbing item.
func unwrapRect(src core.Item[rectVal]) core.Item[Rect] {
	return core.Item[Rect]{Value: src.Value.r, Weight: src.Weight}
}

// catalogTotal sums augmented-catalog sizes over the cascade tree for
// space accounting.
func catalogTotal(nd *cascade.Node) int {
	if nd == nil {
		return 0
	}
	return nd.CatalogLen() + catalogTotal(nd.LeftChild()) + catalogTotal(nd.RightChild())
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// NewMaxCascadeFactory adapts the constructor to the reduction factory
// signature.
func NewMaxCascadeFactory(tracker *em.Tracker) core.MaxFactory[Pt2, Rect] {
	return func(items []core.Item[Rect]) core.Max[Pt2, Rect] {
		s, err := NewMaxCascade(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}
