package dominance

import (
	"sort"

	"topk/internal/core"
	"topk/internal/em"
)

// Prioritized answers prioritized 3D dominance queries: report every point
// e with e ≤ q coordinate-wise and weight ≥ τ. This is 4D dominance
// reporting (the paper plugs in Afshani–Arge–Larsen here); our
// construction is a three-level canonical decomposition:
//
//	level 1: weight — items sorted weight-descending; {w ≥ τ} is a prefix,
//	         covered by O(log n) canonical nodes of a binary prefix tree;
//	level 2: x — within each weight node, points sorted by x; {x ≤ q_x} is
//	         again a prefix with its own canonical tree;
//	level 3: (y, z) — within each x node, points sorted by y with an
//	         implicit min-z segment tree, reporting {y ≤ q_y, z ≤ q_z}
//	         output-sensitively by pruning subtrees with min-z > q_z.
//
// Query O(log³ n + t·log n) worst-case, space O(n log² n) words.
type Prioritized struct {
	tracker *em.Tracker
	byW     []core.Item[Pt3] // weight-descending
	root    *wnode
}

const leafCut = 16 // below this, scan linearly instead of subdividing

type wnode struct {
	items       []core.Item[Pt3] // weight-descending slice of byW
	rep         *rep3            // nil for leaves
	left, right *wnode           // heavier / lighter halves
}

// rep3 reports 3D dominance (x, y, z ≤ q) over a fixed set.
type rep3 struct {
	byX  []core.Item[Pt3] // x-ascending
	root *xnode
}

type xnode struct {
	items       []core.Item[Pt3] // x-ascending slice
	yz          *yzIndex         // nil for leaves
	left, right *xnode
}

// yzIndex holds points sorted by y with an implicit min-z segment tree.
type yzIndex struct {
	ys    []float64
	zs    []float64
	items []core.Item[Pt3]
	seg   []float64 // seg[1] is the root; min z per range
}

// NewPrioritized builds the structure. tracker may be nil.
func NewPrioritized(items []core.Item[Pt3], tracker *em.Tracker) (*Prioritized, error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	byW := make([]core.Item[Pt3], len(items))
	copy(byW, items)
	core.SortByWeightDesc(byW)
	p := &Prioritized{tracker: tracker, byW: byW}
	p.root = p.buildW(byW)
	if tracker != nil && len(byW) > 0 {
		// Every point occupies one 4-word slot in the y-sorted arrays of
		// each (weight node × x node) pair it belongs to: O(log² n)
		// copies.
		l := log2ceil(len(byW)/leafCut + 1)
		tracker.AllocRun(int(em.BlocksFor(len(byW), 4*(l*l+1), tracker.B())))
	}
	return p, nil
}

func (p *Prioritized) buildW(items []core.Item[Pt3]) *wnode {
	if len(items) == 0 {
		return nil
	}
	nd := &wnode{items: items}
	if len(items) <= leafCut {
		return nd
	}
	nd.rep = newRep3(items)
	mid := len(items) / 2
	nd.left = p.buildW(items[:mid])
	nd.right = p.buildW(items[mid:])
	return nd
}

func newRep3(items []core.Item[Pt3]) *rep3 {
	byX := make([]core.Item[Pt3], len(items))
	copy(byX, items)
	sort.Slice(byX, func(i, j int) bool { return byX[i].Value.X < byX[j].Value.X })
	r := &rep3{byX: byX}
	r.root = buildX(byX)
	return r
}

func buildX(items []core.Item[Pt3]) *xnode {
	if len(items) == 0 {
		return nil
	}
	nd := &xnode{items: items}
	if len(items) <= leafCut {
		return nd
	}
	nd.yz = newYZIndex(items)
	mid := len(items) / 2
	nd.left = buildX(items[:mid])
	nd.right = buildX(items[mid:])
	return nd
}

func newYZIndex(items []core.Item[Pt3]) *yzIndex {
	byY := make([]core.Item[Pt3], len(items))
	copy(byY, items)
	sort.Slice(byY, func(i, j int) bool { return byY[i].Value.Y < byY[j].Value.Y })
	idx := &yzIndex{
		ys:    make([]float64, len(byY)),
		zs:    make([]float64, len(byY)),
		items: byY,
		seg:   make([]float64, 4*len(byY)),
	}
	for i, it := range byY {
		idx.ys[i] = it.Value.Y
		idx.zs[i] = it.Value.Z
	}
	idx.buildSeg(1, 0, len(byY))
	return idx
}

func (idx *yzIndex) buildSeg(node, a, b int) float64 {
	if b-a == 1 {
		idx.seg[node] = idx.zs[a]
		return idx.zs[a]
	}
	mid := (a + b) / 2
	l := idx.buildSeg(2*node, a, mid)
	r := idx.buildSeg(2*node+1, mid, b)
	if r < l {
		l = r
	}
	idx.seg[node] = l
	return l
}

// report emits every entry with y ≤ yMax and z ≤ zMax; returns false if
// emit stopped early. visited counts touched segment nodes.
func (idx *yzIndex) report(yMax, zMax float64, emit func(core.Item[Pt3]) bool, visited *int64) bool {
	cnt := sort.SearchFloat64s(idx.ys, yMax)
	for cnt < len(idx.ys) && idx.ys[cnt] == yMax {
		cnt++
	}
	*visited += int64(log2ceil(len(idx.ys)) + 1)
	if cnt == 0 {
		return true
	}
	return idx.reportSeg(1, 0, len(idx.ys), cnt, zMax, emit, visited)
}

func (idx *yzIndex) reportSeg(node, a, b, cnt int, zMax float64, emit func(core.Item[Pt3]) bool, visited *int64) bool {
	if a >= cnt {
		return true
	}
	*visited++
	if idx.seg[node] > zMax {
		return true
	}
	if b-a == 1 {
		return emit(idx.items[a])
	}
	mid := (a + b) / 2
	if !idx.reportSeg(2*node, a, mid, cnt, zMax, emit, visited) {
		return false
	}
	return idx.reportSeg(2*node+1, mid, b, cnt, zMax, emit, visited)
}

// query reports points with Value ≤ (q.X, q.Y, q.Z) within the rep3 set.
func (r *rep3) query(q Pt3, emit func(core.Item[Pt3]) bool, visited *int64) bool {
	cnt := sort.Search(len(r.byX), func(i int) bool { return r.byX[i].Value.X > q.X })
	*visited += int64(log2ceil(len(r.byX)) + 1)
	return queryX(r.root, cnt, q, emit, visited)
}

// queryX covers the x-prefix of length cnt with canonical nodes.
func queryX(nd *xnode, cnt int, q Pt3, emit func(core.Item[Pt3]) bool, visited *int64) bool {
	if nd == nil || cnt <= 0 {
		return true
	}
	*visited++
	if nd.yz == nil { // leaf: partial linear scan of the x-prefix
		limit := min(cnt, len(nd.items))
		for _, it := range nd.items[:limit] {
			if it.Value.Y <= q.Y && it.Value.Z <= q.Z {
				if !emit(it) {
					return false
				}
			}
		}
		return true
	}
	if cnt >= len(nd.items) { // node fully inside the prefix
		return nd.yz.report(q.Y, q.Z, emit, visited)
	}
	lsize := len(nd.left.items)
	if cnt <= lsize {
		return queryX(nd.left, cnt, q, emit, visited)
	}
	if !queryX(nd.left, lsize, q, emit, visited) {
		return false
	}
	return queryX(nd.right, cnt-lsize, q, emit, visited)
}

// ReportAbove implements core.Prioritized[Pt3, Pt3].
func (p *Prioritized) ReportAbove(v *em.QueryView, q Pt3, tau float64, emit func(core.Item[Pt3]) bool) {
	if q.hasNaN() {
		return
	}
	// visited is a per-query local (not a receiver field) so that any
	// number of ReportAbove calls can run concurrently on one structure.
	var visited int64
	emitted := 0
	defer func() {
		if p.tracker != nil {
			// Segment-tree visits attributable to emission (≈ 2 per
			// reported leaf) are paid by the packed output scan; only the
			// residual search nodes pay path cost.
			search := int(visited) - 2*emitted
			if search < 0 {
				search = 0
			}
			p.tracker.PathCost(v, search)
			p.tracker.ScanCost(v, emitted)
		}
	}()
	// {w ≥ τ} is the prefix of byW before the first weight < τ.
	cnt := sort.Search(len(p.byW), func(i int) bool { return p.byW[i].Weight < tau })
	visited += int64(log2ceil(len(p.byW)) + 1)
	wrapped := func(it core.Item[Pt3]) bool {
		emitted++
		return emit(it)
	}
	p.queryW(p.root, cnt, q, wrapped, &visited)
}

func (p *Prioritized) queryW(nd *wnode, cnt int, q Pt3, emit func(core.Item[Pt3]) bool, visited *int64) bool {
	if nd == nil || cnt <= 0 {
		return true
	}
	*visited++
	if nd.rep == nil { // leaf: partial scan of the weight-prefix
		limit := min(cnt, len(nd.items))
		for _, it := range nd.items[:limit] {
			if Match(q, it.Value) {
				if !emit(it) {
					return false
				}
			}
		}
		return true
	}
	if cnt >= len(nd.items) {
		return nd.rep.query(q, emit, visited)
	}
	lsize := len(nd.left.items)
	if cnt <= lsize {
		return p.queryW(nd.left, cnt, q, emit, visited)
	}
	if !p.queryW(nd.left, lsize, q, emit, visited) {
		return false
	}
	return p.queryW(nd.right, cnt-lsize, q, emit, visited)
}

// N returns the number of indexed points.
func (p *Prioritized) N() int { return len(p.byW) }

// NewPrioritizedFactory adapts the constructor to the reduction factory
// signature; build errors panic (the reductions only pass back subsets of
// an input that was already validated).
func NewPrioritizedFactory(tracker *em.Tracker) core.PrioritizedFactory[Pt3, Pt3] {
	return func(items []core.Item[Pt3]) core.Prioritized[Pt3, Pt3] {
		s, err := NewPrioritized(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// NewMaxFactory adapts NewMax to the reduction factory signature.
func NewMaxFactory(tracker *em.Tracker) core.MaxFactory[Pt3, Pt3] {
	return func(items []core.Item[Pt3]) core.Max[Pt3, Pt3] {
		s, err := NewMax(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}
