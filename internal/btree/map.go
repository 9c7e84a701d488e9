package btree

import (
	"sort"

	"topk/internal/em"
)

// Map is a dynamic B-tree over float64 keys. Every node occupies one
// simulated disk block; descents charge one read per level and mutations
// one write per touched node, so operations cost O(log_B n) I/Os.
type Map[V any] struct {
	tracker *em.Tracker
	deg     int // minimum degree t: nodes hold t-1..2t-1 keys (root: ≥1)
	root    *mnode[V]
	size    int
}

type mnode[V any] struct {
	id       em.BlockID
	keys     []float64
	vals     []V
	children []*mnode[V] // nil for leaves
}

func (n *mnode[V]) leaf() bool { return n.children == nil }

// NewMap creates an empty B-tree. tracker may be nil (pure RAM, still
// B-ary with degree derived from a default block of 64 words).
func NewMap[V any](tracker *em.Tracker) *Map[V] {
	b := 64
	if tracker != nil {
		b = tracker.B()
	}
	deg := b / 4 // ~2 words per key/value pair + child pointers per block
	if deg < 2 {
		deg = 2
	}
	m := &Map[V]{tracker: tracker, deg: deg}
	m.root = m.newNode(true)
	return m
}

func (m *Map[V]) newNode(leaf bool) *mnode[V] {
	n := &mnode[V]{}
	if !leaf {
		n.children = make([]*mnode[V], 0, 2*m.deg)
	}
	if m.tracker != nil {
		n.id = m.tracker.Alloc()
	}
	return n
}

func (m *Map[V]) freeNode(n *mnode[V]) {
	if m.tracker != nil {
		m.tracker.Free(n.id)
	}
}

func (m *Map[V]) read(n *mnode[V]) {
	if m.tracker != nil {
		m.tracker.Read(nil, n.id)
	}
}

func (m *Map[V]) write(n *mnode[V]) {
	if m.tracker != nil {
		m.tracker.Write(nil, n.id)
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.size }

// Get returns the value at key.
func (m *Map[V]) Get(key float64) (v V, ok bool) {
	n := m.root
	for {
		m.read(n)
		i := sort.SearchFloat64s(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			return n.vals[i], true
		}
		if n.leaf() {
			return v, false
		}
		n = n.children[i]
	}
}

// Min returns the smallest key.
func (m *Map[V]) Min() (key float64, v V, ok bool) {
	n := m.root
	if m.size == 0 {
		return 0, v, false
	}
	for !n.leaf() {
		m.read(n)
		n = n.children[0]
	}
	m.read(n)
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key.
func (m *Map[V]) Max() (key float64, v V, ok bool) {
	n := m.root
	if m.size == 0 {
		return 0, v, false
	}
	for !n.leaf() {
		m.read(n)
		n = n.children[len(n.children)-1]
	}
	m.read(n)
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
}

// Insert puts (key, v), returning true if an existing entry was replaced.
func (m *Map[V]) Insert(key float64, v V) bool {
	if len(m.root.keys) == 2*m.deg-1 {
		old := m.root
		m.root = m.newNode(false)
		m.root.children = append(m.root.children, old)
		m.splitChild(m.root, 0)
	}
	replaced := m.insertNonFull(m.root, key, v)
	if !replaced {
		m.size++
	}
	return replaced
}

// splitChild splits the full child at index i of parent p.
func (m *Map[V]) splitChild(p *mnode[V], i int) {
	t := m.deg
	c := p.children[i]
	right := m.newNode(c.leaf())

	midKey, midVal := c.keys[t-1], c.vals[t-1]
	right.keys = append(right.keys, c.keys[t:]...)
	right.vals = append(right.vals, c.vals[t:]...)
	c.keys = c.keys[:t-1]
	c.vals = c.vals[:t-1]
	if !c.leaf() {
		right.children = append(right.children, c.children[t:]...)
		c.children = c.children[:t]
	}

	p.keys = append(p.keys, 0)
	copy(p.keys[i+1:], p.keys[i:])
	p.keys[i] = midKey
	p.vals = append(p.vals, midVal)
	copy(p.vals[i+1:], p.vals[i:])
	p.vals[i] = midVal

	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right

	m.write(p)
	m.write(c)
	m.write(right)
}

func (m *Map[V]) insertNonFull(n *mnode[V], key float64, v V) bool {
	for {
		m.read(n)
		i := sort.SearchFloat64s(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = v
			m.write(n)
			return true
		}
		if n.leaf() {
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = key
			var zero V
			n.vals = append(n.vals, zero)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = v
			m.write(n)
			return false
		}
		if len(n.children[i].keys) == 2*m.deg-1 {
			m.splitChild(n, i)
			if key == n.keys[i] {
				n.vals[i] = v
				m.write(n)
				return true
			}
			if key > n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes key, reporting whether it was present.
func (m *Map[V]) Delete(key float64) bool {
	removed := m.delete(m.root, key)
	if removed {
		m.size--
	}
	if len(m.root.keys) == 0 && !m.root.leaf() {
		old := m.root
		m.root = m.root.children[0]
		m.freeNode(old)
	}
	return removed
}

// delete removes key from the subtree at n, which is guaranteed to hold at
// least deg keys (or be the root).
func (m *Map[V]) delete(n *mnode[V], key float64) bool {
	t := m.deg
	m.read(n)
	i := sort.SearchFloat64s(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		if n.leaf() {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
			m.write(n)
			return true
		}
		// Internal hit: replace with predecessor or successor, or merge.
		if len(n.children[i].keys) >= t {
			pk, pv := m.popMax(n.children[i])
			n.keys[i], n.vals[i] = pk, pv
			m.write(n)
			return true
		}
		if len(n.children[i+1].keys) >= t {
			sk, sv := m.popMin(n.children[i+1])
			n.keys[i], n.vals[i] = sk, sv
			m.write(n)
			return true
		}
		m.mergeChildren(n, i)
		return m.delete(n.children[i], key)
	}
	if n.leaf() {
		return false
	}
	// Ensure the child we descend into has ≥ t keys.
	if len(n.children[i].keys) < t {
		i = m.fill(n, i)
	}
	return m.delete(n.children[i], key)
}

// popMax removes and returns the maximum entry of the subtree at n,
// maintaining B-tree invariants on the way down.
func (m *Map[V]) popMax(n *mnode[V]) (float64, V) {
	t := m.deg
	for !n.leaf() {
		m.read(n)
		i := len(n.children) - 1
		if len(n.children[i].keys) < t {
			i = m.fill(n, i)
		}
		n = n.children[i]
	}
	m.read(n)
	last := len(n.keys) - 1
	k, v := n.keys[last], n.vals[last]
	n.keys = n.keys[:last]
	n.vals = n.vals[:last]
	m.write(n)
	return k, v
}

// popMin removes and returns the minimum entry of the subtree at n.
func (m *Map[V]) popMin(n *mnode[V]) (float64, V) {
	t := m.deg
	for !n.leaf() {
		m.read(n)
		i := 0
		if len(n.children[i].keys) < t {
			i = m.fill(n, i)
		}
		n = n.children[i]
	}
	m.read(n)
	k, v := n.keys[0], n.vals[0]
	n.keys = append(n.keys[:0], n.keys[1:]...)
	n.vals = append(n.vals[:0], n.vals[1:]...)
	m.write(n)
	return k, v
}

// fill ensures child i of n has at least deg keys, borrowing from a
// sibling or merging. It returns the (possibly shifted) child index to
// descend into.
func (m *Map[V]) fill(n *mnode[V], i int) int {
	t := m.deg
	if i > 0 && len(n.children[i-1].keys) >= t {
		m.borrowFromLeft(n, i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) >= t {
		m.borrowFromRight(n, i)
		return i
	}
	if i == len(n.children)-1 {
		m.mergeChildren(n, i-1)
		return i - 1
	}
	m.mergeChildren(n, i)
	return i
}

func (m *Map[V]) borrowFromLeft(n *mnode[V], i int) {
	c, l := n.children[i], n.children[i-1]
	m.read(l)
	c.keys = append(c.keys, 0)
	copy(c.keys[1:], c.keys)
	c.keys[0] = n.keys[i-1]
	var zero V
	c.vals = append(c.vals, zero)
	copy(c.vals[1:], c.vals)
	c.vals[0] = n.vals[i-1]

	last := len(l.keys) - 1
	n.keys[i-1], n.vals[i-1] = l.keys[last], l.vals[last]
	l.keys, l.vals = l.keys[:last], l.vals[:last]
	if !c.leaf() {
		c.children = append(c.children, nil)
		copy(c.children[1:], c.children)
		c.children[0] = l.children[len(l.children)-1]
		l.children = l.children[:len(l.children)-1]
	}
	m.write(n)
	m.write(c)
	m.write(l)
}

func (m *Map[V]) borrowFromRight(n *mnode[V], i int) {
	c, r := n.children[i], n.children[i+1]
	m.read(r)
	c.keys = append(c.keys, n.keys[i])
	c.vals = append(c.vals, n.vals[i])
	n.keys[i], n.vals[i] = r.keys[0], r.vals[0]
	r.keys = append(r.keys[:0], r.keys[1:]...)
	r.vals = append(r.vals[:0], r.vals[1:]...)
	if !c.leaf() {
		c.children = append(c.children, r.children[0])
		r.children = append(r.children[:0], r.children[1:]...)
	}
	m.write(n)
	m.write(c)
	m.write(r)
}

// mergeChildren merges child i, separator i, and child i+1 into child i.
func (m *Map[V]) mergeChildren(n *mnode[V], i int) {
	c, r := n.children[i], n.children[i+1]
	m.read(r)
	c.keys = append(c.keys, n.keys[i])
	c.vals = append(c.vals, n.vals[i])
	c.keys = append(c.keys, r.keys...)
	c.vals = append(c.vals, r.vals...)
	if !c.leaf() {
		c.children = append(c.children, r.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
	m.freeNode(r)
	m.write(n)
	m.write(c)
}

// Ascend visits entries with key ≥ from in ascending order until visit
// returns false.
func (m *Map[V]) Ascend(from float64, visit func(key float64, v V) bool) {
	m.ascend(m.root, from, visit)
}

func (m *Map[V]) ascend(n *mnode[V], from float64, visit func(float64, V) bool) bool {
	m.read(n)
	i := sort.SearchFloat64s(n.keys, from)
	if n.leaf() {
		for ; i < len(n.keys); i++ {
			if !visit(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	for ; i < len(n.keys); i++ {
		if !m.ascend(n.children[i], from, visit) {
			return false
		}
		if n.keys[i] >= from && !visit(n.keys[i], n.vals[i]) {
			return false
		}
	}
	return m.ascend(n.children[len(n.children)-1], from, visit)
}

// Depth returns the tree height in levels (1 = just a root leaf).
func (m *Map[V]) Depth() int {
	d, n := 1, m.root
	for !n.leaf() {
		d++
		n = n.children[0]
	}
	return d
}
