package btree

import (
	"sort"
	"testing"

	"topk/internal/em"
	"topk/internal/wrand"
)

func TestStaticIndexPredecessor(t *testing.T) {
	keys := []float64{1, 3, 5, 7, 9}
	s := NewStaticIndex(keys, nil)
	cases := []struct {
		x    float64
		want int
	}{
		{0.5, -1}, {1, 0}, {2, 0}, {3, 1}, {8.9, 3}, {9, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := s.PredecessorIdx(nil, c.x); got != c.want {
			t.Errorf("PredecessorIdx(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if _, ok := s.Predecessor(nil, 0.5); ok {
		t.Error("Predecessor(0.5) found a key")
	}
	if k, ok := s.Predecessor(nil, 6); !ok || k != 5 {
		t.Errorf("Predecessor(6) = %v,%v want 5,true", k, ok)
	}
}

func TestStaticIndexSuccessor(t *testing.T) {
	keys := []float64{1, 3, 5}
	s := NewStaticIndex(keys, nil)
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 2}, {6, 3},
	}
	for _, c := range cases {
		if got := s.SuccessorIdx(nil, c.x); got != c.want {
			t.Errorf("SuccessorIdx(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestStaticIndexLargeAgainstOracle(t *testing.T) {
	g := wrand.New(1)
	keys := g.UniqueFloats(20000, 1e6)
	sort.Float64s(keys)
	s := NewStaticIndex(keys, nil)
	for trial := 0; trial < 500; trial++ {
		x := g.Float64() * 1.1e6
		want := sort.SearchFloat64s(keys, x)
		if want < len(keys) && keys[want] == x {
			// predecessor idx is the match itself
		} else {
			want--
		}
		if got := s.PredecessorIdx(nil, x); got != want {
			t.Fatalf("PredecessorIdx(%v) = %d, want %d", x, got, want)
		}
	}
}

func TestStaticIndexIOCost(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 2})
	g := wrand.New(2)
	keys := g.UniqueFloats(1<<16, 1e9)
	sort.Float64s(keys)
	s := NewStaticIndex(keys, tr)
	tr.DropCache()
	tr.ResetCounters()
	s.PredecessorIdx(nil, 5e8)
	ios := tr.Stats().IOs()
	// 2^16 keys at B=64: leaf level 1024 blocks, level1 16 blocks, level2
	// 1 block -> 3 levels -> 3 reads from a cold cache.
	if ios < 1 || ios > 4 {
		t.Errorf("search cost %d I/Os, want ~3 (log_B n)", ios)
	}
	s.Free()
	if got := tr.Stats().Blocks; got != 0 {
		t.Errorf("blocks after Free = %d, want 0", got)
	}
}

func TestStaticIndexPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted keys accepted")
		}
	}()
	NewStaticIndex([]float64{3, 1, 2}, nil)
}

func TestStaticIndexEmpty(t *testing.T) {
	s := NewStaticIndex(nil, nil)
	if got := s.PredecessorIdx(nil, 5); got != -1 {
		t.Errorf("empty index PredecessorIdx = %d, want -1", got)
	}
	if got := s.SuccessorIdx(nil, 5); got != 0 {
		t.Errorf("empty index SuccessorIdx = %d, want 0", got)
	}
}
