package interval

import (
	"fmt"
	"sort"

	"topk/internal/btree"
	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/pst"
)

// StabMax1D is the folklore static stabbing-max structure of the paper's
// Section 5.2: the 2n endpoints split ℝ into at most 2n+1 regions, each
// annotated with the heaviest interval spanning it; a query is a
// predecessor search. O(n) space, O(log_B n) I/Os per query.
//
// Region granularity is finer than the paper's prose to honor closed
// endpoints exactly: for each endpoint coordinate e_i there is a point
// region {e_i} and an open gap region (e_i, e_{i+1}).
//
// StabMax1D implements core.Max[float64, V].
type StabMax1D[V Spanned] struct {
	idx     *btree.StaticIndex
	atPoint []core.Item[V] // answer for x == coord(i)
	inGap   []core.Item[V] // answer for coord(i) < x < coord(i+1)
	okPoint []bool
	okGap   []bool
	tracker *em.Tracker
	run     em.BlockID
	blocks  int64
}

// NewStabMax1D builds the structure; tracker may be nil.
func NewStabMax1D[V Spanned](items []core.Item[V], tracker *em.Tracker) (*StabMax1D[V], error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	coords := make([]float64, 0, 2*len(items))
	for _, it := range items {
		sp := it.Value.Span()
		if !sp.Valid() {
			return nil, fmt.Errorf("interval: malformed interval %+v", sp)
		}
		coords = append(coords, sp.Lo, sp.Hi)
	}
	sort.Float64s(coords)
	coords = dedupSorted(coords)

	s := &StabMax1D[V]{
		idx:     btree.NewStaticIndex(coords, tracker),
		atPoint: make([]core.Item[V], len(coords)),
		inGap:   make([]core.Item[V], len(coords)),
		okPoint: make([]bool, len(coords)),
		okGap:   make([]bool, len(coords)),
		tracker: tracker,
	}
	if tracker != nil && len(coords) > 0 {
		s.blocks = em.BlocksFor(2*len(coords), 4, tracker.B())
		s.run = tracker.AllocRun(int(s.blocks))
	}

	// Sweep: group items by Lo (starts) and Hi (ends); at each coordinate
	// first add starters, record the point answer, then drop enders and
	// record the gap answer.
	starts := make(map[float64][]core.Item[V])
	ends := make(map[float64][]core.Item[V])
	for _, it := range items {
		sp := it.Value.Span()
		starts[sp.Lo] = append(starts[sp.Lo], it)
		ends[sp.Hi] = append(ends[sp.Hi], it)
	}
	var active pst.Tree[V]
	for i, c := range coords {
		for _, it := range starts[c] {
			active.Insert(pst.Key{K: it.Weight, W: it.Weight}, it.Value)
		}
		if k, v, ok := active.Max(); ok {
			s.atPoint[i] = core.Item[V]{Value: v, Weight: k.W}
			s.okPoint[i] = true
		}
		for _, it := range ends[c] {
			active.Delete(pst.Key{K: it.Weight, W: it.Weight})
		}
		if k, v, ok := active.Max(); ok {
			s.inGap[i] = core.Item[V]{Value: v, Weight: k.W}
			s.okGap[i] = true
		}
	}
	if active.Len() != 0 {
		return nil, fmt.Errorf("interval: sweep left %d active intervals; corrupt input", active.Len())
	}
	return s, nil
}

// Len returns the number of distinct endpoint coordinates.
func (s *StabMax1D[V]) Len() int { return s.idx.Len() }

// MaxItem returns the heaviest interval containing q.
func (s *StabMax1D[V]) MaxItem(v *em.QueryView, q float64) (core.Item[V], bool) {
	i := s.idx.PredecessorIdx(v, q) // charges O(log_B n) reads
	if i < 0 {
		return core.Item[V]{}, false
	}
	return s.AnswerAt(v, i, s.idx.Key(i) == q)
}

// Boundaries returns the sorted region-boundary coordinates; read-only.
// Together with AnswerAt it lets callers (fractional cascading, §5.2)
// replace the predecessor search with their own.
func (s *StabMax1D[V]) Boundaries() []float64 { return s.idx.Keys() }

// AnswerAt returns the stabbing-max answer for the region selected by
// boundary index i: the point region {boundary_i} when exact, otherwise
// the open gap following it. One block read is charged to v for the
// answer lookup.
func (s *StabMax1D[V]) AnswerAt(v *em.QueryView, i int, exact bool) (core.Item[V], bool) {
	if i < 0 || i >= len(s.atPoint) {
		return core.Item[V]{}, false
	}
	if s.tracker != nil && s.run != 0 {
		per := s.tracker.B() / 4
		if per < 1 {
			per = 1
		}
		blk := em.BlockID(i / per)
		if int64(blk) >= s.blocks {
			blk = em.BlockID(s.blocks - 1)
		}
		s.tracker.Read(v, s.run+blk)
	}
	if exact {
		return s.atPoint[i], s.okPoint[i]
	}
	return s.inGap[i], s.okGap[i]
}

// Free releases the structure's blocks.
func (s *StabMax1D[V]) Free() {
	if s.tracker == nil {
		return
	}
	s.idx.Free()
	if s.run != 0 {
		s.tracker.FreeRun(s.run, int(s.blocks))
		s.run = 0
	}
}
