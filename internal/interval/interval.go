// Package interval implements the building blocks of the paper's
// Theorem 4 (top-k interval stabbing): a dynamic interval tree answering
// prioritized-stabbing and stabbing-max queries (the roles played in the
// paper by Tao's ray-stabbing structure [34] and the stabbing-semigroup
// structure of Agarwal et al. [7]), and the folklore static 1D stabbing-max
// structure of Section 5.2.
//
// Input elements are closed intervals [Lo, Hi] ⊂ ℝ with distinct real
// weights; a predicate is a stabbing point q ∈ ℝ, satisfied by intervals
// containing q.
//
// # I/O accounting
//
// These structures stand in for the black boxes the paper cites — Tao '12
// for prioritized ray stabbing (O(log_B n + t/B) I/Os) and Agarwal et
// al. '12 for dynamic stabbing max (O(log_B n)). They charge the simulated
// EM machine exactly that contract: skeleton root-to-leaf walks charge
// em.Tracker.PathCost (blocked tree layout, one I/O per ⌊log₂B⌋ nodes,
// i.e. O(log_B n) per walk) and every reported item charges ScanCost
// (B items per block, the O(t/B) output term). The priority-search-tree
// walks that realize the queries (package pst) are RAM work of the same
// shape, O(log n + t) nodes per tree, and are measured by the wall-clock
// benchmarks, not double-billed as I/Os — this keeps the reduction
// experiments (E4–E7) measuring precisely the quantities Theorems 1 and 2
// are stated over. See DESIGN.md's substitution table.
package interval

import (
	"fmt"
	"math"
	"sort"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/pst"
)

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Span makes Interval satisfy Spanned, so the structures can index bare
// intervals directly.
func (iv Interval) Span() Interval { return iv }

// Contains reports whether x ∈ [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// Valid reports whether the interval is well-formed (Lo ≤ Hi, no NaNs).
func (iv Interval) Valid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) && iv.Lo <= iv.Hi
}

// Spanned is implemented by any element type that carries an interval.
type Spanned interface {
	Span() Interval
}

// Tree is a dynamic interval tree: a balanced skeleton over the endpoint
// coordinates, with each interval stored at the highest node whose center
// it contains, in two priority search trees (package pst, keyed by Lo and
// by Hi).
//
// Queries:
//   - ReportAbove(q, τ): every item containing q with weight ≥ τ, in
//     O(log² n + t) time / O(log n·log_B n + t/B)-style charged I/Os;
//   - MaxItem(q): the heaviest item containing q.
//
// Updates run in O(log² n) amortized time; the skeleton is rebuilt after
// n/2 updates, so new endpoints degrade nothing asymptotically (amortized).
//
// Tree implements core.DynamicPrioritized[float64, V] and
// core.DynamicMax[float64, V].
type Tree[V Spanned] struct {
	tracker *em.Tracker
	root    *tnode[V]
	loc     map[float64]locRef[V]
	n0      int // size at last (re)build
	churn   int // updates since last (re)build
	run     em.BlockID
	blocks  int64
}

// tnode is one skeleton node. Most nodes hold no interval (every interval
// sits at the highest center it contains), so what a node holds lives
// behind one pointer that stays nil until it holds something.
type tnode[V Spanned] struct {
	center      float64
	held        *held[V]
	left, right *tnode[V]
}

// held is what one skeleton node stores: the intervals containing its
// center, in a search tree on Lo and one on Hi, and the post-build
// intervals that fit no node center.
type held[V Spanned] struct {
	byLo, byHi pst.Tree[V]
	rest       []core.Item[V]
}

type locRef[V Spanned] struct {
	nd     *tnode[V]
	span   Interval
	inRest bool
}

// NewTree builds a tree over items. tracker may be nil. It returns an
// error on duplicate weights or malformed intervals.
func NewTree[V Spanned](items []core.Item[V], tracker *em.Tracker) (*Tree[V], error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	for _, it := range items {
		if !it.Value.Span().Valid() {
			return nil, fmt.Errorf("interval: malformed interval %+v", it.Value.Span())
		}
	}
	t := &Tree[V]{tracker: tracker}
	t.build(items)
	return t, nil
}

func (t *Tree[V]) build(items []core.Item[V]) {
	// Space accounting: release the previous incarnation's blocks, then
	// allocate the new ones (items at ~4 words each, plus the skeleton).
	if t.tracker != nil {
		if t.run != 0 {
			t.tracker.FreeRun(t.run, int(t.blocks))
			t.run, t.blocks = 0, 0
		}
		if len(items) > 0 {
			t.blocks = em.BlocksFor(len(items), 4, t.tracker.B())
			t.run = t.tracker.AllocRun(int(t.blocks))
		}
	}
	coords := make([]float64, 0, 2*len(items))
	for _, it := range items {
		sp := it.Value.Span()
		coords = append(coords, sp.Lo, sp.Hi)
	}
	sort.Float64s(coords)
	coords = dedupSorted(coords)

	t.root = buildSkeleton[V](coords, 0, len(coords))
	t.loc = make(map[float64]locRef[V], len(items))
	t.n0 = len(items)
	t.churn = 0

	// Route every item to its node, then lay out each node's two trees
	// in one bulk build. Every item contains its own endpoints, which are
	// centers, so none lands in a rest list.
	groups := make(map[*tnode[V]][]core.Item[V])
	for _, it := range items {
		sp := it.Value.Span()
		nd, _ := t.route(sp)
		groups[nd] = append(groups[nd], it)
		t.loc[it.Weight] = locRef[V]{nd: nd, span: sp}
	}
	var buf []pst.Entry[V]
	keyedBy := func(g []core.Item[V], key func(Interval) float64) pst.Tree[V] {
		buf = buf[:0]
		for _, it := range g {
			buf = append(buf, pst.Entry[V]{Key: pst.Key{K: key(it.Value.Span()), W: it.Weight}, Val: it.Value})
		}
		return pst.Build(buf)
	}
	for nd, g := range groups {
		nd.held = &held[V]{
			byLo: keyedBy(g, func(sp Interval) float64 { return sp.Lo }),
			byHi: keyedBy(g, func(sp Interval) float64 { return sp.Hi }),
		}
	}
}

func dedupSorted(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func buildSkeleton[V Spanned](coords []float64, a, b int) *tnode[V] {
	if a >= b {
		return nil
	}
	mid := a + (b-a)/2
	nd := &tnode[V]{center: coords[mid]}
	nd.left = buildSkeleton[V](coords, a, mid)
	nd.right = buildSkeleton[V](coords, mid+1, b)
	return nd
}

// route finds the node an interval belongs to: the highest whose center
// it contains, or, when it contains none on its way down, the last node
// it reaches (inRest). The skeleton must be non-empty.
func (t *Tree[V]) route(sp Interval) (nd *tnode[V], inRest bool) {
	nd = t.root
	for {
		if sp.Contains(nd.center) {
			return nd, false
		}
		next := nd.right
		if sp.Hi < nd.center {
			next = nd.left
		}
		if next == nil {
			return nd, true
		}
		nd = next
	}
}

// place routes an item to its node, stores it there and records its
// location.
func (t *Tree[V]) place(it core.Item[V]) {
	sp := it.Value.Span()
	if t.root == nil {
		// Empty skeleton (built from zero items): hold everything in a
		// synthetic root's rest list.
		t.root = &tnode[V]{center: sp.Lo}
	}
	nd, inRest := t.route(sp)
	if nd.held == nil {
		nd.held = &held[V]{}
	}
	if inRest {
		nd.held.rest = append(nd.held.rest, it)
	} else {
		nd.held.byLo.Insert(pst.Key{K: sp.Lo, W: it.Weight}, it.Value)
		nd.held.byHi.Insert(pst.Key{K: sp.Hi, W: it.Weight}, it.Value)
	}
	t.loc[it.Weight] = locRef[V]{nd: nd, span: sp, inRest: inRest}
}

// Len returns the number of stored items.
func (t *Tree[V]) Len() int { return len(t.loc) }

// ReportAbove implements core.Prioritized: emit every item containing q
// with weight ≥ tau.
func (t *Tree[V]) ReportAbove(v *em.QueryView, q float64, tau float64, emit func(core.Item[V]) bool) {
	t.reportAbove(v, q, tau, emit)
}

// reportAbove is ReportAbove, returning the number of search-tree nodes
// its walks entered (the RAM work the charge stands for; see the tests'
// visit bound).
func (t *Tree[V]) reportAbove(v *em.QueryView, q float64, tau float64, emit func(core.Item[V]) bool) (visits int) {
	emitted, pathNodes, restScanned := 0, 0, 0
	defer func() {
		t.chargeQuery(v, pathNodes, restScanned, emitted)
	}()

	visit := func(k pst.Key, v V) bool {
		emitted++
		return emit(core.Item[V]{Value: v, Weight: k.W})
	}
	for nd := t.root; nd != nil; nd = nd.next(q) {
		pathNodes++
		h := nd.held
		if h == nil {
			continue
		}
		restScanned += len(h.rest)
		for _, it := range h.rest {
			if it.Weight >= tau && it.Value.Span().Contains(q) {
				emitted++
				if !emit(it) {
					return visits
				}
			}
		}
		n, ok := h.report(q, nd.center, tau, visit)
		visits += n
		if !ok {
			return visits
		}
	}
	return visits
}

// next is the child a search for q continues into: none once q reaches
// the center, and none for a NaN q, which no interval contains.
func (nd *tnode[V]) next(q float64) *tnode[V] {
	switch {
	case q < nd.center:
		return nd.left
	case q > nd.center:
		return nd.right
	}
	return nil
}

// report walks the search tree that holds the intervals containing q at
// a node with the given center (the rest list aside), returning the nodes
// it entered and whether it ran to completion.
func (h *held[V]) report(q, center, tau float64, visit func(pst.Key, V) bool) (int, bool) {
	switch {
	case q < center:
		return h.byLo.PrefixReportAbove(q, tau, visit)
	case q > center:
		return h.byHi.SuffixReportAbove(q, tau, visit)
	case q == center: // every interval at this node contains q
		return h.byLo.PrefixReportAbove(math.Inf(1), tau, visit)
	}
	return 0, true
}

// max is report's max twin.
func (h *held[V]) max(q, center float64) (pst.Key, V, bool) {
	switch {
	case q < center:
		return h.byLo.PrefixMax(q)
	case q > center:
		return h.byHi.SuffixMax(q)
	case q == center:
		return h.byLo.Max()
	}
	var v V
	return pst.Key{}, v, false
}

// count is report's counting twin.
func (h *held[V]) count(q, center float64) int {
	switch {
	case q < center:
		return h.byLo.PrefixCount(q)
	case q > center:
		return h.byHi.SuffixCount(q)
	case q == center:
		return h.byLo.Len()
	}
	return 0
}

// MaxItem implements core.Max: the heaviest item containing q.
func (t *Tree[V]) MaxItem(v *em.QueryView, q float64) (core.Item[V], bool) {
	best := core.Item[V]{Weight: math.Inf(-1)}
	found := false
	pathNodes, restScanned := 0, 0
	for nd := t.root; nd != nil; nd = nd.next(q) {
		pathNodes++
		h := nd.held
		if h == nil {
			continue
		}
		restScanned += len(h.rest)
		for _, it := range h.rest {
			if it.Weight > best.Weight && it.Value.Span().Contains(q) {
				best, found = it, true
			}
		}
		if k, v, ok := h.max(q, nd.center); ok && k.W > best.Weight {
			best, found = core.Item[V]{Value: v, Weight: k.W}, true
		}
	}
	t.chargeQuery(v, pathNodes, restScanned, 0)
	return best, found
}

// Count returns the number of stored intervals containing q, in
// O(log² n) time / O(log_B n)-charged I/Os — the counting structure role
// in the Rahul–Janardan counting reduction (paper §2). For interval
// stabbing exact counting is easy, which the paper notes only improves
// that baseline.
func (t *Tree[V]) Count(v *em.QueryView, q float64) int {
	total, pathNodes := 0, 0
	for nd := t.root; nd != nil; nd = nd.next(q) {
		pathNodes++
		h := nd.held
		if h == nil {
			continue
		}
		for _, it := range h.rest {
			if it.Value.Span().Contains(q) {
				total++
			}
		}
		total += h.count(q, nd.center)
	}
	if t.tracker != nil {
		t.tracker.PathCost(v, pathNodes)
	}
	return total
}

// Insert implements core.Updatable. Duplicate weights overwrite silently
// is NOT the semantics here: inserting an existing weight panics, because
// it would corrupt the distinct-weights invariant the reductions rely on.
func (t *Tree[V]) Insert(it core.Item[V]) {
	if _, dup := t.loc[it.Weight]; dup {
		panic(fmt.Sprintf("interval: duplicate weight %v", it.Weight))
	}
	if !it.Value.Span().Valid() {
		panic(fmt.Sprintf("interval: malformed interval %+v", it.Value.Span()))
	}
	t.place(it)
	t.chargeUpdate()
	t.bumpChurn()
}

// DeleteWeight implements core.Updatable.
func (t *Tree[V]) DeleteWeight(w float64) bool {
	ref, ok := t.loc[w]
	if !ok {
		return false
	}
	h := ref.nd.held
	if ref.inRest {
		for i, it := range h.rest {
			if it.Weight == w {
				last := len(h.rest) - 1
				h.rest[i] = h.rest[last]
				h.rest = h.rest[:last]
				break
			}
		}
	} else {
		h.byLo.Delete(pst.Key{K: ref.span.Lo, W: w})
		h.byHi.Delete(pst.Key{K: ref.span.Hi, W: w})
	}
	if h.byLo.Len() == 0 && len(h.rest) == 0 {
		ref.nd.held = nil
	}
	delete(t.loc, w)
	t.chargeUpdate()
	t.bumpChurn()
	return true
}

func (t *Tree[V]) bumpChurn() {
	t.churn++
	if t.churn > t.n0/2+32 {
		t.build(t.collect())
	}
}

func (t *Tree[V]) collect() []core.Item[V] {
	items := make([]core.Item[V], 0, len(t.loc))
	var walk func(nd *tnode[V])
	walk = func(nd *tnode[V]) {
		if nd == nil {
			return
		}
		if h := nd.held; h != nil {
			h.byLo.All(func(k pst.Key, v V) bool {
				items = append(items, core.Item[V]{Value: v, Weight: k.W})
				return true
			})
			items = append(items, h.rest...)
		}
		walk(nd.left)
		walk(nd.right)
	}
	walk(t.root)
	return items
}

func (t *Tree[V]) chargeQuery(v *em.QueryView, pathNodes, restScanned, emitted int) {
	if t.tracker == nil {
		return
	}
	// Charge the contract of the cited black box: one skeleton descent
	// (O(log_B n) after blocking) plus the O(t/B) output term. The
	// search-tree walks are the RAM work realizing that contract; see the
	// package comment.
	t.tracker.PathCost(v, pathNodes)
	t.tracker.ScanCost(v, restScanned+emitted)
}

func (t *Tree[V]) chargeUpdate() {
	if t.tracker == nil {
		return
	}
	// One skeleton descent plus two search-tree updates: O(log n) nodes.
	t.tracker.PathCost(nil, 2*approxLog2(len(t.loc)+2))
	t.tracker.ScanCost(nil, 1)
}

func approxLog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Depth returns the skeleton depth (for balance tests).
func (t *Tree[V]) Depth() int {
	var d func(*tnode[V]) int
	d = func(nd *tnode[V]) int {
		if nd == nil {
			return 0
		}
		l, r := d(nd.left), d(nd.right)
		if l < r {
			l = r
		}
		return l + 1
	}
	return d(t.root)
}
