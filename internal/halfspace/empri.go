package halfspace

import (
	"fmt"
	"math"

	"topk/internal/core"
	"topk/internal/em"
)

// EMPrioritized is the paper's Section 5.5 external-memory construction
// for prioritized halfspace reporting in d ≥ 4, implemented verbatim:
//
//   - sort the points by weight (descending here, so {w ≥ τ} is a prefix);
//   - build a B-tree over the weights with leaf capacity B and internal
//     fanout f = (n/B)^(ε/2) — the tree then has O(1) levels;
//   - attach a halfspace reporting structure (our kd-tree standing in for
//     Agarwal et al. [6]) to every node's subtree.
//
// A query collects the canonical set U(τ): the O(f) maximal nodes per
// level (O(1) levels) whose subtrees lie entirely inside the weight
// prefix, queries each node's structure with the halfspace, and scans the
// straddling leaf. Total: O(f · (n/B)^(1-1/⌊d/2⌋+ε/2) + t/B) =
// O((n/B)^(1-1/⌊d/2⌋+ε) + t/B) I/Os, the bound of Theorem 3's third
// bullet's ingredient.
type EMPrioritized struct {
	d       int
	eps     float64
	fanout  int
	byW     []core.Item[PtN] // weight-descending
	root    *emNode
	tracker *em.Tracker
}

type emNode struct {
	lo, hi   int // subtree covers byW[lo:hi]
	str      *KDTree
	children []*emNode // nil for leaves
}

// NewEMPrioritized builds the §5.5 structure with parameter ε ∈ (0, 1].
func NewEMPrioritized(items []core.Item[PtN], d int, eps float64, tracker *em.Tracker) (*EMPrioritized, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("halfspace: ε = %v, need (0, 1]", eps)
	}
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	for _, it := range items {
		if len(it.Value.C) != d {
			return nil, fmt.Errorf("halfspace: point with %d coordinates in dimension %d", len(it.Value.C), d)
		}
	}
	b := 64
	if tracker != nil {
		b = tracker.B()
	}
	byW := make([]core.Item[PtN], len(items))
	copy(byW, items)
	core.SortByWeightDesc(byW)

	f := int(math.Ceil(math.Pow(float64(max(1, len(items)))/float64(b), eps/2)))
	if f < 2 {
		f = 2
	}
	e := &EMPrioritized{d: d, eps: eps, fanout: f, byW: byW, tracker: tracker}
	if len(byW) > 0 {
		root, err := e.build(0, len(byW), b)
		if err != nil {
			return nil, err
		}
		e.root = root
	}
	return e, nil
}

func (e *EMPrioritized) build(lo, hi, b int) (*emNode, error) {
	str, err := NewKDTree(e.byW[lo:hi], e.d, e.tracker)
	if err != nil {
		return nil, err
	}
	nd := &emNode{lo: lo, hi: hi, str: str}
	if hi-lo <= b {
		return nd, nil // leaf
	}
	// Split into `fanout` weight-contiguous children (at least leaf-sized).
	per := (hi - lo + e.fanout - 1) / e.fanout
	if per < b {
		per = b
	}
	for s := lo; s < hi; s += per {
		t := s + per
		if t > hi {
			t = hi
		}
		child, err := e.build(s, t, b)
		if err != nil {
			return nil, err
		}
		nd.children = append(nd.children, child)
	}
	return nd, nil
}

// N returns the number of indexed points.
func (e *EMPrioritized) N() int { return len(e.byW) }

// Fanout returns the tree fanout f = (n/B)^(ε/2).
func (e *EMPrioritized) Fanout() int { return e.fanout }

// Levels returns the tree depth (O(1) by construction).
func (e *EMPrioritized) Levels() int {
	l, nd := 0, e.root
	for nd != nil {
		l++
		if len(nd.children) == 0 {
			break
		}
		nd = nd.children[0]
	}
	return l
}

// ReportAbove implements core.Prioritized[Halfspace, PtN].
func (e *EMPrioritized) ReportAbove(v *em.QueryView, q Halfspace, tau float64, emit func(core.Item[PtN]) bool) {
	if e.root == nil {
		return
	}
	// cnt = |{w ≥ τ}|: first index with weight < τ in the descending order.
	lo, hi := 0, len(e.byW)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.byW[mid].Weight < tau {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if e.tracker != nil {
		e.tracker.PathCost(v, log2c(len(e.byW)+1))
	}
	e.query(v, e.root, lo, q, tau, emit)
}

// query covers byW[:cnt] with canonical nodes; fully covered nodes use
// their halfspace structure, the straddling path recurses, straddling
// leaves scan.
func (e *EMPrioritized) query(v *em.QueryView, nd *emNode, cnt int, q Halfspace, tau float64, emit func(core.Item[PtN]) bool) bool {
	if nd == nil || cnt <= nd.lo {
		return true
	}
	if cnt >= nd.hi {
		// Entirely inside the prefix: report by geometry only.
		stopped := false
		nd.str.ReportAbove(v, q, math.Inf(-1), func(it core.Item[PtN]) bool {
			if !emit(it) {
				stopped = true
				return false
			}
			return true
		})
		return !stopped
	}
	if len(nd.children) == 0 {
		// Straddling leaf: scan its ≤ B points.
		if e.tracker != nil {
			e.tracker.ScanCost(v, cnt-nd.lo)
		}
		for _, it := range e.byW[nd.lo:cnt] {
			if q.Contains(it.Value) {
				if !emit(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range nd.children {
		if !e.query(v, c, cnt, q, tau, emit) {
			return false
		}
		if cnt < c.hi {
			break // later siblings are entirely past the prefix
		}
	}
	return true
}

// NewEMPrioritizedFactory adapts the constructor to the reduction factory
// signature for dimension d and parameter ε.
func NewEMPrioritizedFactory(d int, eps float64, tracker *em.Tracker) core.PrioritizedFactory[Halfspace, PtN] {
	return func(items []core.Item[PtN]) core.Prioritized[Halfspace, PtN] {
		s, err := NewEMPrioritized(items, d, eps, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}

func log2c(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
