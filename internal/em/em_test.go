package em

import (
	"fmt"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTracker accepted MemBlocks = 1, want panic (model requires M >= 2B)")
		}
	}()
	NewTracker(Config{B: 64, MemBlocks: 1})
}

func TestAllocChargesWriteAndSpace(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 4})
	id := tr.Alloc()
	if id == 0 {
		t.Fatal("Alloc returned invalid block 0")
	}
	st := tr.Stats()
	if st.Writes != 1 || st.Blocks != 1 {
		t.Fatalf("after Alloc: writes=%d blocks=%d, want 1,1", st.Writes, st.Blocks)
	}
	tr.Free(id)
	if got := tr.Stats().Blocks; got != 0 {
		t.Fatalf("after Free: blocks=%d, want 0", got)
	}
}

func TestReadHitsAndMisses(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 2})
	a, b, c := tr.Alloc(), tr.Alloc(), tr.Alloc()
	tr.DropCache()
	tr.ResetCounters()

	tr.Read(nil, a) // miss
	tr.Read(nil, a) // hit
	tr.Read(nil, b) // miss
	tr.Read(nil, c) // miss, evicts a (LRU)
	tr.Read(nil, a) // miss again
	st := tr.Stats()
	if st.Reads != 4 {
		t.Errorf("reads = %d, want 4", st.Reads)
	}
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
}

func TestLRUOrdering(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 2})
	a, b, c := tr.Alloc(), tr.Alloc(), tr.Alloc()
	tr.DropCache()
	tr.ResetCounters()

	tr.Read(nil, a)
	tr.Read(nil, b)
	tr.Read(nil, a) // refresh a so that b is LRU
	tr.Read(nil, c) // should evict b, not a
	tr.ResetCounters()
	tr.Read(nil, a)
	if got := tr.Stats().Hits; got != 1 {
		t.Errorf("read(a) after refresh: hits=%d, want 1 (a should be resident)", got)
	}
	tr.Read(nil, b)
	if got := tr.Stats().Reads; got != 1 {
		t.Errorf("read(b): reads=%d, want 1 (b should have been evicted)", got)
	}
}

func TestScanCost(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 4})
	tr.ScanCost(nil, 0)
	if got := tr.Stats().Reads; got != 0 {
		t.Errorf("ScanCost(0) charged %d reads, want 0", got)
	}
	tr.ScanCost(nil, 1)
	if got := tr.Stats().Reads; got != 1 {
		t.Errorf("ScanCost(1) charged %d reads, want 1", got)
	}
	tr.ResetCounters()
	tr.ScanCost(nil, 65) // 65 items at B=64 -> 2 blocks
	if got := tr.Stats().Reads; got != 2 {
		t.Errorf("ScanCost(65) charged %d reads, want 2", got)
	}
	tr.ResetCounters()
	tr.ScanCost(nil, 128)
	if got := tr.Stats().Reads; got != 2 {
		t.Errorf("ScanCost(128) charged %d reads, want 2", got)
	}
}

func TestSortCost(t *testing.T) {
	// M/B = 4, so each merge pass multiplies the sorted run length by 4:
	// up to 4 blocks sort in one pass, up to 16 in two, up to 64 in three.
	cases := []struct {
		items          int
		blocks, passes int64
	}{
		{items: 10, blocks: 1, passes: 1},         // under one block
		{items: 4 * 64, blocks: 4, passes: 1},     // exactly M/B blocks
		{items: 4*64 + 1, blocks: 5, passes: 2},   // M/B + 1 blocks
		{items: 16 * 64, blocks: 16, passes: 2},   // exactly (M/B)² blocks
		{items: 16*64 + 1, blocks: 17, passes: 3}, // (M/B)² + 1 blocks
		{items: 64 * 64, blocks: 64, passes: 3},   // exactly (M/B)³ blocks
	}
	for _, c := range cases {
		tr := NewTracker(Config{B: 64, MemBlocks: 4})
		tr.SortCost(c.items)
		want := c.blocks * c.passes
		if st := tr.Stats(); st.Reads != want || st.Writes != want || st.Hits != 0 || st.Blocks != 0 {
			t.Errorf("SortCost(%d) = %+v, want %d reads and %d writes (%d blocks × %d passes), no hits, no space",
				c.items, st, want, want, c.blocks, c.passes)
		}
	}
	tr := NewTracker(Config{B: 64, MemBlocks: 4})
	tr.SortCost(0)
	tr.SortCost(-5)
	if st := tr.Stats(); st != (Stats{}) {
		t.Errorf("SortCost(n <= 0) charged %+v, want nothing", st)
	}
}

func TestReadRunBypassesCacheWhenLong(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 2})
	first := tr.AllocRun(10)
	tr.DropCache()
	tr.ResetCounters()
	tr.ReadRun(nil, first, 10)
	st := tr.Stats()
	if st.Reads != 10 || st.Hits != 0 {
		t.Errorf("long ReadRun: reads=%d hits=%d, want 10,0", st.Reads, st.Hits)
	}
}

func TestStatsSub(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	a := tr.Alloc()
	tr.DropCache()
	before := tr.Stats()
	tr.Read(nil, a)
	tr.Read(nil, a)
	d := tr.Stats().Sub(before)
	if d.Reads != 1 || d.Hits != 1 {
		t.Errorf("delta reads=%d hits=%d, want 1,1", d.Reads, d.Hits)
	}
	if d.IOs() != 1 {
		t.Errorf("delta IOs=%d, want 1", d.IOs())
	}
}

func TestBlocksFor(t *testing.T) {
	cases := []struct {
		items, words, b int
		want            int64
	}{
		{0, 2, 64, 0},
		{1, 2, 64, 1},
		{32, 2, 64, 1},
		{33, 2, 64, 2},
		{64, 1, 64, 1},
		{65, 1, 64, 2},
	}
	for _, c := range cases {
		if got := BlocksFor(c.items, c.words, c.b); got != c.want {
			t.Errorf("BlocksFor(%d,%d,%d) = %d, want %d", c.items, c.words, c.b, got, c.want)
		}
	}
}

func TestFreeRunAndCacheEviction(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 4})
	first := tr.AllocRun(3)
	tr.Read(nil, first)
	tr.FreeRun(first, 3)
	if got := tr.Stats().Blocks; got != 0 {
		t.Errorf("blocks after FreeRun = %d, want 0", got)
	}
	if tr.cache.len() != 0 {
		t.Errorf("cache still holds %d freed blocks", tr.cache.len())
	}
}

func TestPathCost(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 2})
	tr.PathCost(nil, 0)
	if got := tr.Stats().Reads; got != 0 {
		t.Errorf("PathCost(0) charged %d reads", got)
	}
	// B=64: per = 7 (1 + log2 64). 1..7 nodes -> 1 read; 8 -> 2.
	tr.PathCost(nil, 1)
	if got := tr.Stats().Reads; got != 1 {
		t.Errorf("PathCost(1) charged %d reads, want 1", got)
	}
	tr.ResetCounters()
	tr.PathCost(nil, 7)
	if got := tr.Stats().Reads; got != 1 {
		t.Errorf("PathCost(7) charged %d reads, want 1", got)
	}
	tr.ResetCounters()
	tr.PathCost(nil, 8)
	if got := tr.Stats().Reads; got != 2 {
		t.Errorf("PathCost(8) charged %d reads, want 2", got)
	}
	// Larger B packs more nodes per block.
	tr2 := NewTracker(Config{B: 1024, MemBlocks: 2})
	tr2.PathCost(nil, 11)
	if got := tr2.Stats().Reads; got != 1 {
		t.Errorf("B=1024 PathCost(11) charged %d reads, want 1", got)
	}
}

func TestSeqBlocks(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 8})
	cases := []struct {
		bytes, want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {512, 1}, {513, 2}, {8 * 64, 1}, {8*64 + 1, 2}, {8 * 64 * 10, 10},
	}
	for _, c := range cases {
		if got := tr.SeqBlocks(c.bytes); got != c.want {
			t.Errorf("SeqBlocks(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestSnapshotCost(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 8})
	tr.SnapshotCost(8 * 64 * 3) // exactly 3 blocks of words
	if s := tr.Stats(); s.Writes != 3 || s.Reads != 0 {
		t.Fatalf("snapshot cost: %+v", s)
	}
}

func TestRestoreAccounting(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 8})
	// Pre-existing activity that must survive the restore untouched.
	id := tr.Alloc()
	tr.Read(nil, id)
	tr.Read(nil, id) // hit
	before := tr.Stats()

	err := tr.RestoreAccounting(8*64*5, func() error {
		// A reconstruction that charges heavily, as a real build would.
		run := tr.AllocRun(100)
		tr.ReadRun(nil, run, 100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Reads != before.Reads+5 {
		t.Errorf("reads = %d, want %d (before) + 5 sequential", s.Reads, before.Reads)
	}
	if s.Writes != before.Writes || s.Hits != before.Hits {
		t.Errorf("writes/hits changed: %+v vs %+v", s, before)
	}
	if s.Blocks != before.Blocks+100 {
		t.Errorf("blocks = %d, want space kept from reconstruction", s.Blocks)
	}
	// Cache must be cold: re-reading the old block costs a miss.
	tr.Read(nil, id)
	if got := tr.Stats().Reads; got != s.Reads+1 {
		t.Errorf("cache not dropped: reads %d, want %d", got, s.Reads+1)
	}
}

func TestRestoreAccountingError(t *testing.T) {
	tr := NewTracker(Config{B: 64, MemBlocks: 8})
	wantErr := fmt.Errorf("decode failed")
	if err := tr.RestoreAccounting(100, func() error { return wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
}
