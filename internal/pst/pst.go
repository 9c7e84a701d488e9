// Package pst implements a priority search tree (McCreight 1985) laid out
// in one slice: a binary search tree on an entry's key that is at the same
// time a max-heap on its weight. It is the secondary structure inside the
// interval and 1D range black boxes of this repository.
//
// Entries are keyed by a primary coordinate K with the entry's weight W as
// a tiebreak. Every node holds the heaviest entry of its key range that no
// ancestor holds, plus a split key: its left subtree holds the keys below
// the split, its right subtree the rest. The split keys keep the tree
// balanced on K whatever the weights, and the heap order lets a query stop
// at the first entry below its threshold, so:
//
//   - a three-sided report — every entry with K ≤ x (or K ≥ x, or
//     lo ≤ K ≤ hi) and W ≥ τ — enters O(log n + t) nodes for t reported;
//   - a prefix, suffix or range max enters O(log n) nodes, because an
//     in-range node is the heaviest entry of its subtree;
//   - a prefix, suffix or range count is O(log n) through subtree sizes.
//
// Build lays a tree out in preorder by a median split. Insert pushes the
// new entry down from the root, swapping it with every lighter entry it
// meets, and adds a leaf where the carried entry falls off; Delete pulls
// the heavier child up. A subtree that a new leaf makes too deep for its
// size (a scapegoat, Galperin and Rivest 1993) is rebuilt in place, and
// the whole tree is rebuilt into a fresh slice once more than half its
// slots are free. Updates therefore run in O(log² n) amortized time.
package pst

import (
	"math"
	"slices"
)

// Key orders entries by primary coordinate K, breaking ties by weight W.
// Keys are distinct within a tree.
type Key struct {
	K float64 // primary search coordinate
	W float64 // entry weight
}

// Less is the strict lexicographic order on (K, W).
func (a Key) Less(b Key) bool {
	if a.K != b.K {
		return a.K < b.K
	}
	return a.W < b.W
}

func (a Key) compare(b Key) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// outranks is the heap order: the heavier weight, and on equal weights
// the smaller key, sits higher.
func outranks(a, b Key) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	return a.K < b.K
}

// Entry is one stored key with its value.
type Entry[V any] struct {
	Key Key
	Val V
}

// none marks an absent child.
const none int32 = -1

type node[V any] struct {
	e           Entry[V] // outranks every entry below it
	split       Key      // the left subtree holds keys < split, the right keys ≥ split
	left, right int32    // child slots, or none
	size        int32    // entries in the subtree; 0 marks a free slot
}

// Tree is a priority search tree. The zero value is an empty tree.
//
// The root is slot 0 whenever the tree is non-empty: deletes move entries,
// not the root's slot, and a rebuild hands its subtree's smallest slot to
// the subtree's root. Queries never mutate the tree, so any number of them
// may run concurrently; Insert and Delete require exclusive access.
type Tree[V any] struct {
	nodes []node[V]
	// freeHead is 1 + the first free slot (0 when none); a free slot's
	// left field holds the next link in the same encoding.
	freeHead int32
}

// Build returns a tree holding es, laid out in preorder by a median-split
// build: each node takes the heaviest remaining entry of its range, and
// the rest split at their median key. Build sorts es by key; keys must be
// distinct.
func Build[V any](es []Entry[V]) Tree[V] {
	if len(es) == 0 {
		return Tree[V]{}
	}
	slices.SortFunc(es, func(a, b Entry[V]) int { return a.Key.compare(b.Key) })
	t := Tree[V]{nodes: make([]node[V], len(es))}
	b := builder[V]{nodes: t.nodes}
	b.build(es)
	return t
}

// builder fills slots in preorder: slots[0], slots[1], … when slots is
// set (an in-place subtree rebuild), 0, 1, … otherwise.
type builder[V any] struct {
	nodes []node[V]
	slots []int32
	next  int
}

// build lays out the key-sorted entries es and returns the slot of their
// root. It reorders es.
func (b *builder[V]) build(es []Entry[V]) int32 {
	if len(es) == 0 {
		return none
	}
	top := 0
	for i := 1; i < len(es); i++ {
		if outranks(es[i].Key, es[top].Key) {
			top = i
		}
	}
	e := es[top]
	copy(es[1:top+1], es[:top]) // the rest stays sorted in es[1:]
	rest := es[1:]
	s := int32(b.next)
	if b.slots != nil {
		s = b.slots[b.next]
	}
	b.next++
	half := len(rest) / 2
	split := e.Key
	if len(rest) > 0 {
		split = rest[half].Key
	}
	left := b.build(rest[:half])
	right := b.build(rest[half:])
	b.nodes[s] = node[V]{e: e, split: split, left: left, right: right, size: int32(len(es))}
	return s
}

func (t *Tree[V]) root() int32 {
	if len(t.nodes) == 0 {
		return none
	}
	return 0
}

func (t *Tree[V]) size(i int32) int {
	if i == none {
		return 0
	}
	return int(t.nodes[i].size)
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size(t.root()) }

// Max returns the heaviest entry; ok is false when the tree is empty.
func (t *Tree[V]) Max() (k Key, v V, ok bool) {
	if len(t.nodes) == 0 {
		return k, v, false
	}
	e := t.nodes[0].e
	return e.Key, e.Val, true
}

// find returns the slot holding k, or none. Every entry lies on the
// search path of its key, above any entry it outranks.
func (t *Tree[V]) find(k Key) int32 {
	i := t.root()
	for i != none {
		n := &t.nodes[i]
		if n.e.Key == k {
			return i
		}
		if outranks(k, n.e.Key) {
			return none
		}
		if k.Less(n.split) {
			i = n.left
		} else {
			i = n.right
		}
	}
	return none
}

// Insert adds an entry. Inserting an existing key replaces its value.
func (t *Tree[V]) Insert(k Key, v V) {
	if i := t.find(k); i != none {
		t.nodes[i].e.Val = v
		return
	}
	cur := Entry[V]{Key: k, Val: v}
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, node[V]{e: cur, split: k, left: none, right: none, size: 1})
		return
	}
	var buf [64]int32
	path := buf[:0]
	i := int32(0)
	for {
		path = append(path, i)
		n := &t.nodes[i]
		n.size++
		if outranks(cur.Key, n.e.Key) {
			cur, n.e = n.e, cur
		}
		left := cur.Key.Less(n.split)
		next := n.right
		if left {
			next = n.left
		}
		if next != none {
			i = next
			continue
		}
		j := t.alloc(node[V]{e: cur, split: cur.Key, left: none, right: none, size: 1})
		if left {
			t.nodes[i].left = j
		} else {
			t.nodes[i].right = j
		}
		path = append(path, j)
		break
	}
	if tooDeep(len(path)-1, t.nodes[0].size) {
		t.rebalance(path)
	}
}

// alpha is the scapegoat balance factor: a subtree of m entries may be
// at most log_{1/alpha} m levels deep before an insert rebuilds it.
const alpha = 2.0 / 3

var logInvAlpha = math.Log(1 / alpha)

// tooDeep reports whether depth d exceeds log_{1/alpha} m.
func tooDeep(d int, m int32) bool {
	return float64(d) > math.Log(float64(m))/logInvAlpha
}

// rebalance rebuilds the lowest subtree on path (root to a new leaf) that
// is too deep for its size. One exists when the leaf is too deep for the
// whole tree, and rebuilding it restores the bound (Galperin and Rivest).
func (t *Tree[V]) rebalance(path []int32) {
	leaf := len(path) - 1
	for j := leaf - 1; j >= 0; j-- {
		if !tooDeep(leaf-j, t.nodes[path[j]].size) {
			continue
		}
		r := t.rebuild(path[j])
		if j > 0 {
			p := &t.nodes[path[j-1]]
			if p.left == path[j] {
				p.left = r
			} else {
				p.right = r
			}
		}
		return
	}
}

// rebuild lays the subtree at slot u out again, perfectly balanced, in
// its own slots in preorder, and returns the new root's slot.
func (t *Tree[V]) rebuild(u int32) int32 {
	m := t.nodes[u].size
	slots := make([]int32, 0, m)
	es := make([]Entry[V], 0, m)
	stack := []int32{u}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[i]
		slots = append(slots, i)
		es = append(es, n.e)
		if n.left != none {
			stack = append(stack, n.left)
		}
		if n.right != none {
			stack = append(stack, n.right)
		}
	}
	slices.Sort(slots)
	slices.SortFunc(es, func(a, b Entry[V]) int { return a.Key.compare(b.Key) })
	b := builder[V]{nodes: t.nodes, slots: slots}
	return b.build(es)
}

func (t *Tree[V]) alloc(n node[V]) int32 {
	if t.freeHead == 0 {
		t.nodes = append(t.nodes, n)
		return int32(len(t.nodes) - 1)
	}
	i := t.freeHead - 1
	t.freeHead = t.nodes[i].left
	t.nodes[i] = n
	return i
}

// Delete removes the entry with key k, reporting whether it existed.
func (t *Tree[V]) Delete(k Key) bool {
	if t.find(k) == none {
		return false
	}
	p, i := none, int32(0)
	for {
		n := &t.nodes[i]
		n.size--
		if n.e.Key == k {
			break
		}
		p = i
		if k.Less(n.split) {
			i = n.left
		} else {
			i = n.right
		}
	}
	// Pull the heavier child's entry up until a leaf is vacated.
	for {
		n := &t.nodes[i]
		c := n.left
		if c == none || (n.right != none && outranks(t.nodes[n.right].e.Key, t.nodes[c].e.Key)) {
			c = n.right
		}
		if c == none {
			break
		}
		n.e = t.nodes[c].e
		t.nodes[c].size--
		p, i = i, c
	}
	if p == none { // the root was the last entry
		t.nodes, t.freeHead = t.nodes[:0], 0
		return true
	}
	if pn := &t.nodes[p]; pn.left == i {
		pn.left = none
	} else {
		pn.right = none
	}
	t.nodes[i] = node[V]{left: t.freeHead}
	t.freeHead = i + 1
	if live := t.nodes[0].size; 2*int(live) < len(t.nodes) {
		es := make([]Entry[V], 0, live)
		t.All(func(k Key, v V) bool {
			es = append(es, Entry[V]{Key: k, Val: v})
			return true
		})
		*t = Build(es)
	}
	return true
}

// All calls visit for every entry, in unspecified order, stopping early
// if visit returns false.
func (t *Tree[V]) All(visit func(Key, V) bool) {
	for i := range t.nodes {
		if n := &t.nodes[i]; n.size > 0 && !visit(n.e.Key, n.e.Val) {
			return
		}
	}
}

// walker carries one report walk: its threshold, its callback and the
// number of nodes it has entered.
type walker[V any] struct {
	nodes   []node[V]
	tau     float64
	visit   func(Key, V) bool
	visited int
}

// PrefixReportAbove calls visit for every entry with key.K ≤ x and weight
// ≥ tau, in unspecified order, stopping early if visit returns false. It
// returns the number of nodes the walk entered and whether enumeration
// ran to completion.
func (t *Tree[V]) PrefixReportAbove(x, tau float64, visit func(Key, V) bool) (visited int, complete bool) {
	w := walker[V]{nodes: t.nodes, tau: tau, visit: visit}
	ok := w.prefix(t.root(), x)
	return w.visited, ok
}

// SuffixReportAbove is the mirror: entries with key.K ≥ x and weight ≥ tau.
func (t *Tree[V]) SuffixReportAbove(x, tau float64, visit func(Key, V) bool) (visited int, complete bool) {
	w := walker[V]{nodes: t.nodes, tau: tau, visit: visit}
	ok := w.suffix(t.root(), x)
	return w.visited, ok
}

// RangeReportAbove calls visit for every entry with lo ≤ key.K ≤ hi and
// weight ≥ tau, as PrefixReportAbove does.
func (t *Tree[V]) RangeReportAbove(lo, hi, tau float64, visit func(Key, V) bool) (visited int, complete bool) {
	w := walker[V]{nodes: t.nodes, tau: tau, visit: visit}
	ok := w.between(t.root(), lo, hi)
	return w.visited, ok
}

// The walks below enter O(log n + t) nodes: each step down a search path
// enters one node and at most one whole subtree (all), and all enters a
// node only if it is that subtree's root or a child of a reported node.

// prefix reports the subtree at i's entries with K ≤ x.
func (w *walker[V]) prefix(i int32, x float64) bool {
	for i != none {
		n := &w.nodes[i]
		w.visited++
		if n.e.Key.W < w.tau {
			return true
		}
		if n.e.Key.K <= x && !w.visit(n.e.Key, n.e.Val) {
			return false
		}
		if x >= n.split.K { // the left subtree's keys are all ≤ x
			if !w.all(n.left) {
				return false
			}
			i = n.right
		} else { // the right subtree's keys are all > x
			i = n.left
		}
	}
	return true
}

// suffix reports the subtree at i's entries with K ≥ x.
func (w *walker[V]) suffix(i int32, x float64) bool {
	for i != none {
		n := &w.nodes[i]
		w.visited++
		if n.e.Key.W < w.tau {
			return true
		}
		if n.e.Key.K >= x && !w.visit(n.e.Key, n.e.Val) {
			return false
		}
		if x <= n.split.K { // the right subtree's keys are all ≥ x
			if !w.all(n.right) {
				return false
			}
			i = n.left
		} else { // the left subtree's keys are all < x
			i = n.right
		}
	}
	return true
}

// between reports the subtree at i's entries with lo ≤ K ≤ hi: one
// search path down to the node whose split falls inside [lo, hi], then a
// suffix walk on its left and a prefix walk on its right.
func (w *walker[V]) between(i int32, lo, hi float64) bool {
	for i != none {
		n := &w.nodes[i]
		w.visited++
		if n.e.Key.W < w.tau {
			return true
		}
		if lo <= n.e.Key.K && n.e.Key.K <= hi && !w.visit(n.e.Key, n.e.Val) {
			return false
		}
		switch {
		case hi < n.split.K:
			i = n.left
		case lo > n.split.K:
			i = n.right
		case lo <= n.split.K && n.split.K <= hi:
			return w.suffix(n.left, lo) && w.prefix(n.right, hi)
		default: // a NaN bound: no key lies in the range
			return true
		}
	}
	return true
}

// all reports the subtree at i's entries.
func (w *walker[V]) all(i int32) bool {
	for i != none {
		n := &w.nodes[i]
		w.visited++
		if n.e.Key.W < w.tau {
			return true
		}
		if !w.visit(n.e.Key, n.e.Val) || !w.all(n.left) {
			return false
		}
		i = n.right
	}
	return true
}

// PrefixMax returns the heaviest entry with key.K ≤ x.
func (t *Tree[V]) PrefixMax(x float64) (k Key, v V, ok bool) {
	return t.entry(t.prefixMax(t.root(), x, none))
}

// SuffixMax returns the heaviest entry with key.K ≥ x.
func (t *Tree[V]) SuffixMax(x float64) (k Key, v V, ok bool) {
	return t.entry(t.suffixMax(t.root(), x, none))
}

// RangeMax returns the heaviest entry with lo ≤ key.K ≤ hi.
func (t *Tree[V]) RangeMax(lo, hi float64) (k Key, v V, ok bool) {
	return t.entry(t.rangeMax(t.root(), lo, hi, none))
}

func (t *Tree[V]) entry(i int32) (k Key, v V, ok bool) {
	if i == none {
		return k, v, false
	}
	e := t.nodes[i].e
	return e.Key, e.Val, true
}

// beats reports whether slot i holds an entry that outranks slot best's.
func (t *Tree[V]) beats(i, best int32) bool {
	return best == none || outranks(t.nodes[i].e.Key, t.nodes[best].e.Key)
}

// The max walks follow one search path: an in-range node outranks its
// whole subtree, so the walk ends there, and a subtree wholly in range
// offers its root.

func (t *Tree[V]) prefixMax(i int32, x float64, best int32) int32 {
	for i != none && t.beats(i, best) {
		n := &t.nodes[i]
		if n.e.Key.K <= x {
			return i
		}
		if x >= n.split.K {
			if n.left != none && t.beats(n.left, best) {
				best = n.left
			}
			i = n.right
		} else {
			i = n.left
		}
	}
	return best
}

func (t *Tree[V]) suffixMax(i int32, x float64, best int32) int32 {
	for i != none && t.beats(i, best) {
		n := &t.nodes[i]
		if n.e.Key.K >= x {
			return i
		}
		if x <= n.split.K {
			if n.right != none && t.beats(n.right, best) {
				best = n.right
			}
			i = n.left
		} else {
			i = n.right
		}
	}
	return best
}

func (t *Tree[V]) rangeMax(i int32, lo, hi float64, best int32) int32 {
	for i != none && t.beats(i, best) {
		n := &t.nodes[i]
		if lo <= n.e.Key.K && n.e.Key.K <= hi {
			return i
		}
		switch {
		case hi < n.split.K:
			i = n.left
		case lo > n.split.K:
			i = n.right
		case lo <= n.split.K && n.split.K <= hi:
			return t.prefixMax(n.right, hi, t.suffixMax(n.left, lo, best))
		default: // a NaN bound
			return best
		}
	}
	return best
}

// PrefixCount returns the number of entries with key.K ≤ x.
func (t *Tree[V]) PrefixCount(x float64) int {
	c := 0
	for i := t.root(); i != none; {
		n := &t.nodes[i]
		if n.e.Key.K <= x {
			c++
		}
		if x >= n.split.K {
			c += t.size(n.left)
			i = n.right
		} else {
			i = n.left
		}
	}
	return c
}

// countBelow returns the number of entries with key.K < x.
func (t *Tree[V]) countBelow(x float64) int {
	c := 0
	for i := t.root(); i != none; {
		n := &t.nodes[i]
		if n.e.Key.K < x {
			c++
		}
		if x > n.split.K {
			c += t.size(n.left)
			i = n.right
		} else {
			i = n.left
		}
	}
	return c
}

// SuffixCount returns the number of entries with key.K ≥ x.
func (t *Tree[V]) SuffixCount(x float64) int {
	if math.IsNaN(x) { // countBelow(NaN) is 0, yet nothing is ≥ NaN
		return 0
	}
	return t.Len() - t.countBelow(x)
}

// RangeCount returns the number of entries with lo ≤ key.K ≤ hi.
func (t *Tree[V]) RangeCount(lo, hi float64) int {
	if !(lo <= hi) { // an empty range, or a NaN bound
		return 0
	}
	return t.PrefixCount(hi) - t.countBelow(lo)
}

// Height returns the number of levels (0 for empty); exported for
// balance tests and the visit bounds.
func (t *Tree[V]) Height() int { return t.height(t.root()) }

func (t *Tree[V]) height(i int32) int {
	if i == none {
		return 0
	}
	return 1 + max(t.height(t.nodes[i].left), t.height(t.nodes[i].right))
}
