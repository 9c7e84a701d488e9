package pst

import "fmt"

// CheckInvariants verifies the tree's structural invariants — the root in
// slot 0, every entry inside the key range its ancestors' splits give it,
// heap order, the size augmentation, and a free list holding exactly the
// slots no entry uses — returning the first violation found. Intended for
// tests and fuzzing; O(n).
func (t *Tree[V]) CheckInvariants() error {
	if len(t.nodes) == 0 {
		if t.freeHead != 0 {
			return fmt.Errorf("pst: empty tree with a free list")
		}
		return nil
	}
	reached := make([]bool, len(t.nodes))
	live, err := t.check(0, nil, nil, reached)
	if err != nil {
		return err
	}
	free := 0
	for f := t.freeHead; f != 0; f = t.nodes[f-1].left {
		i := f - 1
		if i < 0 || int(i) >= len(t.nodes) || reached[i] || t.nodes[i].size != 0 {
			return fmt.Errorf("pst: free list reaches slot %d, which is in use or out of range", i)
		}
		reached[i] = true
		if free++; free > len(t.nodes) {
			return fmt.Errorf("pst: free list cycles")
		}
	}
	if live+free != len(t.nodes) {
		return fmt.Errorf("pst: %d live and %d free slots, but %d slots", live, free, len(t.nodes))
	}
	return nil
}

// check verifies the subtree at i, whose keys must lie in [lo, hi) (a
// nil bound is open), and returns its size.
func (t *Tree[V]) check(i int32, lo, hi *Key, reached []bool) (int, error) {
	if i == none {
		return 0, nil
	}
	if i < 0 || int(i) >= len(t.nodes) || reached[i] {
		return 0, fmt.Errorf("pst: slot %d reached twice or out of range", i)
	}
	reached[i] = true
	n := &t.nodes[i]
	for _, k := range []Key{n.e.Key, n.split} {
		if (lo != nil && k.Less(*lo)) || (hi != nil && !k.Less(*hi)) {
			return 0, fmt.Errorf("pst: key or split %v outside the range of the node holding %v", k, n.e.Key)
		}
	}
	for _, c := range []int32{n.left, n.right} {
		if c != none && c >= 0 && int(c) < len(t.nodes) && outranks(t.nodes[c].e.Key, n.e.Key) {
			return 0, fmt.Errorf("pst: heap order violated: %v below %v", t.nodes[c].e.Key, n.e.Key)
		}
	}
	split := n.split
	ls, err := t.check(n.left, lo, &split, reached)
	if err != nil {
		return 0, err
	}
	rs, err := t.check(n.right, &split, hi, reached)
	if err != nil {
		return 0, err
	}
	if size := 1 + ls + rs; int(n.size) != size {
		return 0, fmt.Errorf("pst: size at %v is %d, want %d", n.e.Key, n.size, size)
	}
	return int(n.size), nil
}
