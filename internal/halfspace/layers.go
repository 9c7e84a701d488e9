package halfspace

import (
	"fmt"
	"math"

	"topk/internal/core"
	"topk/internal/em"
)

// Reporter answers (unweighted-style) halfplane reporting over a fixed 2D
// point set using convex layers, the Chazelle–Guibas–Lee technique the
// paper builds on in Section 5.4: peel the hull repeatedly; to answer a
// query, report the boundary arc inside the halfplane layer by layer, and
// stop at the first layer whose extreme vertex falls outside (every deeper
// layer is nested inside it, so nothing further qualifies).
//
// Query cost is O((1 + ℓ)·log n + t) where ℓ ≤ t+1 is the number of layers
// touched (the paper reaches O(log n + t) with fractional cascading across
// layers; see DESIGN.md's substitution table).
type Reporter struct {
	layers  []rlayer
	n       int
	tracker *em.Tracker
}

type rlayer struct {
	hull    Hull
	verts   []Pt2
	itemsAt [][]core.Item[Pt2] // aligned with verts; >1 entry on coordinate ties
	vertIdx map[Pt2]int
}

// NewReporter peels items into convex layers. tracker may be nil.
func NewReporter(items []core.Item[Pt2], tracker *em.Tracker) *Reporter {
	r := &Reporter{n: len(items), tracker: tracker}
	if tracker != nil && len(items) > 0 {
		tracker.AllocRun(int(em.BlocksFor(len(items), 3, tracker.B())))
	}
	remaining := append([]core.Item[Pt2](nil), items...)
	for len(remaining) > 0 {
		pts := make([]Pt2, len(remaining))
		for i, it := range remaining {
			pts[i] = it.Value
		}
		hull := BuildHull(pts)
		verts := hull.Vertices()
		idx := make(map[Pt2]int, len(verts))
		for i, v := range verts {
			idx[v] = i
		}
		l := rlayer{
			hull:    hull,
			verts:   verts,
			itemsAt: make([][]core.Item[Pt2], len(verts)),
			vertIdx: idx,
		}
		var rest []core.Item[Pt2]
		for _, it := range remaining {
			if i, on := idx[it.Value]; on {
				l.itemsAt[i] = append(l.itemsAt[i], it)
			} else {
				rest = append(rest, it)
			}
		}
		if len(rest) == len(remaining) {
			// Cannot happen for a correct hull; guard against looping.
			panic(fmt.Sprintf("halfspace: layer peeled no points (%d remaining)", len(remaining)))
		}
		r.layers = append(r.layers, l)
		remaining = rest
	}
	return r
}

// N returns the number of indexed points.
func (r *Reporter) N() int { return r.n }

// Layers returns the number of convex layers.
func (r *Reporter) Layers() int { return len(r.layers) }

// NonEmpty reports whether any point lies in q (an O(log n) hull-extreme
// test on the outermost layer).
func (r *Reporter) NonEmpty(v *em.QueryView, q Halfplane) bool {
	if len(r.layers) == 0 {
		return false
	}
	if r.tracker != nil {
		r.tracker.PathCost(v, log2ceil(len(r.layers[0].verts))+1)
	}
	return r.layers[0].hull.NonEmpty(q)
}

// Report emits every item inside q, stopping early if emit returns false.
func (r *Reporter) Report(v *em.QueryView, q Halfplane, emit func(core.Item[Pt2]) bool) {
	touched, emitted := 0, 0
	defer func() {
		if r.tracker != nil {
			r.tracker.PathCost(v, (touched+1)*(log2ceil(r.n+1)+1))
			r.tracker.ScanCost(v, emitted)
		}
	}()
	for li := range r.layers {
		l := &r.layers[li]
		touched++
		best, arg := l.hull.ExtremeDot(q.A, q.B)
		if best < q.C {
			return // deeper layers are nested inside this hull
		}
		idx := l.vertIdx[arg]
		m := len(l.verts)
		emitVert := func(i int) bool {
			for _, it := range l.itemsAt[i] {
				emitted++
				if !emit(it) {
					return false
				}
			}
			return true
		}
		// The in-halfplane vertices form one contiguous cyclic arc
		// containing the extreme; walk it in both directions.
		steps := 0
		for i := idx; steps < m && q.Contains(l.verts[i]); i = (i + 1) % m {
			if !emitVert(i) {
				return
			}
			steps++
		}
		if steps < m {
			for i := (idx - 1 + m) % m; steps < m && q.Contains(l.verts[i]); i = (i - 1 + m) % m {
				if !emitVert(i) {
					return
				}
				steps++
			}
		}
	}
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// hullEmptiness adapts a hull to core.Emptiness for MaxFromEmptiness.
type hullEmptiness struct {
	hull Hull
}

func (h hullEmptiness) NonEmpty(_ *em.QueryView, q Halfplane) bool { return h.hull.NonEmpty(q) }

// NewEmptinessFactory builds hull-based emptiness structures (O(m log m)
// build, O(log m) query, O(m) space).
func NewEmptinessFactory(tracker *em.Tracker) core.EmptinessFactory[Halfplane, Pt2] {
	return func(items []core.Item[Pt2]) core.Emptiness[Halfplane] {
		pts := make([]Pt2, len(items))
		for i, it := range items {
			pts[i] = it.Value
		}
		h := BuildHull(pts)
		if tracker != nil {
			if m := len(h.Lower) + len(h.Upper); m > 0 {
				tracker.AllocRun(int(em.BlocksFor(m, 2, tracker.B())))
			}
		}
		return hullEmptiness{hull: h}
	}
}

// NewMax builds the 2D halfplane max structure: the emptiness-hierarchy
// combinator over convex hulls — the role of §5.4's incremental planar
// subdivision plus point location, at O(log² n) query.
func NewMax(items []core.Item[Pt2], tracker *em.Tracker) (*core.MaxFromEmptiness[Halfplane, Pt2], error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	return core.NewMaxFromEmptiness(items, NewEmptinessFactory(tracker), tracker), nil
}

// Prioritized answers prioritized 2D halfplane queries: a binary prefix
// tree over the weight-descending order (the role of §5.4's BBST over
// weights), with a convex-layer Reporter at every canonical node.
// O(n log n) space, O(log² n + … ) query.
type Prioritized struct {
	tracker *em.Tracker
	byW     []core.Item[Pt2]
	root    *pnode
}

type pnode struct {
	items       []core.Item[Pt2]
	rep         *Reporter // nil for leaves
	left, right *pnode
}

const leafCut = 16

// NewPrioritized builds the structure; tracker may be nil.
func NewPrioritized(items []core.Item[Pt2], tracker *em.Tracker) (*Prioritized, error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	byW := make([]core.Item[Pt2], len(items))
	copy(byW, items)
	core.SortByWeightDesc(byW)
	p := &Prioritized{tracker: tracker, byW: byW}
	p.root = p.build(byW)
	return p, nil
}

func (p *Prioritized) build(items []core.Item[Pt2]) *pnode {
	if len(items) == 0 {
		return nil
	}
	nd := &pnode{items: items}
	if len(items) <= leafCut {
		return nd
	}
	nd.rep = NewReporter(items, p.tracker)
	mid := len(items) / 2
	nd.left = p.build(items[:mid])
	nd.right = p.build(items[mid:])
	return nd
}

// N returns the number of indexed points.
func (p *Prioritized) N() int { return len(p.byW) }

// ReportAbove implements core.Prioritized[Halfplane, Pt2].
func (p *Prioritized) ReportAbove(v *em.QueryView, q Halfplane, tau float64, emit func(core.Item[Pt2]) bool) {
	// {w ≥ τ} is a prefix of byW; cover it with canonical nodes.
	lo, hi := 0, len(p.byW)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.byW[mid].Weight < tau {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if p.tracker != nil {
		p.tracker.PathCost(v, log2ceil(len(p.byW)+1)+1)
	}
	p.query(v, p.root, lo, q, emit)
}

func (p *Prioritized) query(v *em.QueryView, nd *pnode, cnt int, q Halfplane, emit func(core.Item[Pt2]) bool) bool {
	if nd == nil || cnt <= 0 {
		return true
	}
	if nd.rep == nil { // leaf: partial scan
		if p.tracker != nil {
			p.tracker.ScanCost(v, min(cnt, len(nd.items)))
		}
		for _, it := range nd.items[:min(cnt, len(nd.items))] {
			if q.Contains(it.Value) {
				if !emit(it) {
					return false
				}
			}
		}
		return true
	}
	if cnt >= len(nd.items) {
		stopped := false
		nd.rep.Report(v, q, func(it core.Item[Pt2]) bool {
			if !emit(it) {
				stopped = true
				return false
			}
			return true
		})
		return !stopped
	}
	lsize := len(nd.left.items)
	if cnt <= lsize {
		return p.query(v, nd.left, cnt, q, emit)
	}
	if !p.query(v, nd.left, lsize, q, emit) {
		return false
	}
	return p.query(v, nd.right, cnt-lsize, q, emit)
}

// MaxItem also lets Prioritized serve as a (slower) max structure in
// tests: the heaviest point in q via a canonical descent.
func (p *Prioritized) MaxItem(v *em.QueryView, q Halfplane) (core.Item[Pt2], bool) {
	best := core.Item[Pt2]{Weight: math.Inf(-1)}
	found := false
	p.query(v, p.root, len(p.byW), q, func(it core.Item[Pt2]) bool {
		if it.Weight > best.Weight {
			best, found = it, true
		}
		return true
	})
	return best, found
}

// NewPrioritizedFactory adapts the constructor to the reduction factory
// signature; build errors panic (subsets of validated inputs).
func NewPrioritizedFactory(tracker *em.Tracker) core.PrioritizedFactory[Halfplane, Pt2] {
	return func(items []core.Item[Pt2]) core.Prioritized[Halfplane, Pt2] {
		s, err := NewPrioritized(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// NewMaxFactory adapts NewMax to the reduction factory signature.
func NewMaxFactory(tracker *em.Tracker) core.MaxFactory[Halfplane, Pt2] {
	return func(items []core.Item[Pt2]) core.Max[Halfplane, Pt2] {
		s, err := NewMax(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}
