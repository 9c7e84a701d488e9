// Package btree provides a B-fanout search structure over the simulated
// EM machine of internal/em: a packed static index, bulk-built, with
// predecessor / successor search in O(log_B n) I/Os. It is the
// predecessor search under interval.StabMax1D, the paper's §5.2 folklore
// static 1D stabbing max.
package btree

import (
	"sort"

	"topk/internal/em"
)

// StaticIndex is a bulk-built sorted index over float64 keys with integer
// payloads (typically positions into a co-sorted payload array). Keys are
// packed B-per-block; above them sits a fanout-B index hierarchy, so a
// search touches O(log_B n) blocks.
type StaticIndex struct {
	keys    []float64
	tracker *em.Tracker
	// levels[0] is the leaf key run; levels[l>0] holds the first key of
	// every block of level l-1. first[l] is the run's first BlockID.
	levels [][]float64
	first  []em.BlockID
	perBlk int
}

// NewStaticIndex builds an index over keys (which must be sorted
// ascending; it panics otherwise, since a silently unsorted index would
// corrupt every search). tracker may be nil for pure-RAM use.
func NewStaticIndex(keys []float64, tracker *em.Tracker) *StaticIndex {
	if !sort.Float64sAreSorted(keys) {
		panic("btree: NewStaticIndex requires sorted keys")
	}
	s := &StaticIndex{keys: append([]float64(nil), keys...), tracker: tracker, perBlk: 64}
	if tracker != nil {
		s.perBlk = tracker.B()
	}
	cur := s.keys
	for {
		s.levels = append(s.levels, cur)
		nBlocks := (len(cur) + s.perBlk - 1) / s.perBlk
		if tracker != nil && nBlocks > 0 {
			s.first = append(s.first, tracker.AllocRun(nBlocks))
		} else {
			s.first = append(s.first, 0)
		}
		if nBlocks <= 1 {
			break
		}
		next := make([]float64, 0, nBlocks)
		for b := 0; b < nBlocks; b++ {
			next = append(next, cur[b*s.perBlk])
		}
		cur = next
	}
	return s
}

// Len returns the number of keys.
func (s *StaticIndex) Len() int { return len(s.keys) }

// Key returns the i-th smallest key.
func (s *StaticIndex) Key(i int) float64 { return s.keys[i] }

// Keys returns the sorted key slice. The caller must treat it as
// read-only; it is the index's backing storage.
func (s *StaticIndex) Keys() []float64 { return s.keys }

// charge reads the block of level l containing position i, charging v.
func (s *StaticIndex) charge(v *em.QueryView, l, i int) {
	if s.tracker == nil || s.first[l] == 0 {
		return
	}
	s.tracker.Read(v, s.first[l]+em.BlockID(i/s.perBlk))
}

// PredecessorIdx returns the largest i with keys[i] ≤ x, or -1. The search
// descends the index hierarchy, charging v (nil: the shared path) one
// block per level.
func (s *StaticIndex) PredecessorIdx(v *em.QueryView, x float64) int {
	if len(s.keys) == 0 || x < s.keys[0] {
		if len(s.levels) > 0 && len(s.keys) > 0 {
			s.charge(v, len(s.levels)-1, 0)
		}
		return -1
	}
	// Start at the top level and narrow one block per level.
	pos := 0
	for l := len(s.levels) - 1; l >= 0; l-- {
		lvl := s.levels[l]
		// Search within the block of `pos` guidance: positions
		// [pos, pos+perBlk) at this level descend from the parent slot.
		hi := pos + s.perBlk
		if hi > len(lvl) {
			hi = len(lvl)
		}
		s.charge(v, l, pos)
		// Largest index in [pos, hi) with lvl[idx] ≤ x.
		j := sort.Search(hi-pos, func(i int) bool { return lvl[pos+i] > x }) - 1
		idx := pos + j
		if l == 0 {
			return idx
		}
		pos = idx * s.perBlk
	}
	return -1
}

// Predecessor returns the largest key ≤ x.
func (s *StaticIndex) Predecessor(v *em.QueryView, x float64) (float64, bool) {
	i := s.PredecessorIdx(v, x)
	if i < 0 {
		return 0, false
	}
	return s.keys[i], true
}

// SuccessorIdx returns the smallest i with keys[i] ≥ x, or len(keys).
func (s *StaticIndex) SuccessorIdx(v *em.QueryView, x float64) int {
	i := s.PredecessorIdx(v, x)
	if i >= 0 && s.keys[i] == x {
		return i
	}
	return i + 1
}

// Free releases the index's blocks back to the tracker.
func (s *StaticIndex) Free() {
	if s.tracker == nil {
		return
	}
	for l, lvl := range s.levels {
		if s.first[l] != 0 {
			s.tracker.FreeRun(s.first[l], (len(lvl)+s.perBlk-1)/s.perBlk)
		}
	}
	s.levels, s.first = nil, nil
}
