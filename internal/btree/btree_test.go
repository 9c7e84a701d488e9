package btree

import (
	"sort"
	"testing"
	"testing/quick"

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

func TestMapBasicOps(t *testing.T) {
	m := NewMap[string](nil)
	if m.Len() != 0 {
		t.Fatalf("new map Len = %d", m.Len())
	}
	if replaced := m.Insert(5, "five"); replaced {
		t.Fatal("first insert reported replacement")
	}
	if replaced := m.Insert(5, "FIVE"); !replaced {
		t.Fatal("second insert did not report replacement")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if v, ok := m.Get(5); !ok || v != "FIVE" {
		t.Fatalf("Get(5) = %q,%v", v, ok)
	}
	if _, ok := m.Get(6); ok {
		t.Fatal("Get(6) found an absent key")
	}
	if !m.Delete(5) {
		t.Fatal("Delete(5) returned false")
	}
	if m.Delete(5) {
		t.Fatal("double Delete returned true")
	}
}

func TestMapAgainstOracleChurn(t *testing.T) {
	g := wrand.New(3)
	m := NewMap[int](nil)
	oracle := map[float64]int{}
	keys := g.UniqueFloats(5000, 1e6)

	for i, k := range keys {
		m.Insert(k, i)
		oracle[k] = i
	}
	// Delete half, reinsert a quarter.
	for i := 0; i < 2500; i++ {
		k := keys[g.IntN(len(keys))]
		if m.Delete(k) != (func() bool { _, ok := oracle[k]; return ok })() {
			t.Fatalf("Delete(%v) disagreed with oracle", k)
		}
		delete(oracle, k)
	}
	for i := 0; i < 1250; i++ {
		k := keys[g.IntN(len(keys))]
		m.Insert(k, -i)
		oracle[k] = -i
	}
	if m.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", m.Len(), len(oracle))
	}
	for k, v := range oracle {
		got, ok := m.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%v) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func TestMapMinMaxAscend(t *testing.T) {
	g := wrand.New(4)
	m := NewMap[int](nil)
	if _, _, ok := m.Min(); ok {
		t.Fatal("empty Min reported ok")
	}
	if _, _, ok := m.Max(); ok {
		t.Fatal("empty Max reported ok")
	}
	keys := g.UniqueFloats(2000, 1e6)
	for i, k := range keys {
		m.Insert(k, i)
	}
	sorted := append([]float64(nil), keys...)
	sort.Float64s(sorted)
	if k, _, _ := m.Min(); k != sorted[0] {
		t.Fatalf("Min = %v, want %v", k, sorted[0])
	}
	if k, _, _ := m.Max(); k != sorted[len(sorted)-1] {
		t.Fatalf("Max = %v, want %v", k, sorted[len(sorted)-1])
	}
	from := sorted[1000]
	var got []float64
	m.Ascend(from, func(k float64, _ int) bool {
		got = append(got, k)
		return len(got) < 500
	})
	for i, k := range got {
		if k != sorted[1000+i] {
			t.Fatalf("Ascend[%d] = %v, want %v", i, k, sorted[1000+i])
		}
	}
	if len(got) != 500 {
		t.Fatalf("Ascend early stop visited %d, want 500", len(got))
	}
}

func TestMapDepthAndIOCost(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 2})
	m := NewMap[int](tr)
	g := wrand.New(5)
	keys := g.UniqueFloats(1<<15, 1e9)
	for i, k := range keys {
		m.Insert(k, i)
	}
	// deg = 16 -> fanout up to 32: depth should be ~4 for 32k keys.
	if d := m.Depth(); d > 5 {
		t.Errorf("depth %d for 32k keys at deg 16; want ≤ 5", d)
	}
	tr.DropCache()
	tr.ResetCounters()
	m.Get(keys[123])
	if ios := tr.Stats().IOs(); ios > 6 {
		t.Errorf("Get cost %d I/Os from cold cache, want ≤ depth+1", ios)
	}
}

func TestMapQuickProperty(t *testing.T) {
	f := func(ops []struct {
		K   uint16
		Del bool
	}) bool {
		m := NewMap[int](nil)
		oracle := map[float64]int{}
		for i, op := range ops {
			k := float64(op.K % 512)
			if op.Del {
				if m.Delete(k) != (func() bool { _, ok := oracle[k]; return ok })() {
					return false
				}
				delete(oracle, k)
			} else {
				m.Insert(k, i)
				oracle[k] = i
			}
		}
		if m.Len() != len(oracle) {
			return false
		}
		// Full in-order traversal must be sorted and match the oracle.
		var prev float64 = -1
		count := 0
		okAll := true
		m.Ascend(-1, func(k float64, v int) bool {
			if k <= prev {
				okAll = false
				return false
			}
			if want, ok := oracle[k]; !ok || want != v {
				okAll = false
				return false
			}
			prev = k
			count++
			return true
		})
		return okAll && count == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMapDeleteDrainsCompletely(t *testing.T) {
	g := wrand.New(6)
	m := NewMap[int](nil)
	keys := g.UniqueFloats(3000, 1e6)
	for i, k := range keys {
		m.Insert(k, i)
	}
	g.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if !m.Delete(k) {
			t.Fatalf("Delete(%v) failed during drain", k)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len after drain = %d", m.Len())
	}
	if m.Depth() != 1 {
		t.Fatalf("Depth after drain = %d, want 1", m.Depth())
	}
}
