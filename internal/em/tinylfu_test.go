package em

import "testing"

// The TinyLFU admission tests drive the cache implementations directly
// through the blockCache interface: policy behavior is deterministic
// given an access sequence, so the scenarios below pin down the three
// properties the policy is for — scan resistance, frequency-ordered
// admission, and bounded (aging) frequency history.

// runHotScanWorkload warms a hot set of `hot` blocks, then interleaves
// one never-repeated scan block between consecutive hot touches, and
// returns the hot-touch hit rate during the interleaved phase.
func runHotScanWorkload(c blockCache, hot, steps int) float64 {
	// Warm-up: several rounds so the hot blocks both become resident and
	// accumulate sketch counts above any one-touch block's estimate.
	for round := 0; round < 4; round++ {
		for i := 0; i < hot; i++ {
			c.touch(BlockID(i + 1))
		}
	}
	scanID := BlockID(1 << 20)
	hits := 0
	for i := 0; i < steps; i++ {
		scanID++
		c.touch(scanID) // one-touch block, never seen again
		if c.touch(BlockID(i%hot + 1)) {
			hits++
		}
	}
	return float64(hits) / float64(steps)
}

// TestTinyLFUScanResistance is the policy's reason to exist: under a
// scan flood interleaved with a resident-sized hot set, plain LRU
// evicts each hot block before its next touch (hit rate collapses),
// while TinyLFU's admission filter keeps the hot set resident with a
// high hit-rate floor.
func TestTinyLFUScanResistance(t *testing.T) {
	const hot, steps = 32, 4096
	var lruCtr, lfuCtr cacheCounters
	lruRate := runHotScanWorkload(newLRUCache(hot, &lruCtr), hot, steps)
	lfuRate := runHotScanWorkload(newTinyLFUCache(hot, &lfuCtr), hot, steps)

	if lruRate > 0.10 {
		t.Fatalf("LRU hot hit rate %.3f under scan flood; the workload is not adversarial enough to mean anything", lruRate)
	}
	if lfuRate < 0.80 {
		t.Fatalf("TinyLFU hot hit rate %.3f under scan flood, want >= 0.80 (LRU managed %.3f)", lfuRate, lruRate)
	}
	if lfuRate <= lruRate {
		t.Fatalf("TinyLFU hit rate %.3f not above LRU's %.3f", lfuRate, lruRate)
	}

	// The policy counters must reflect what happened: the flood was
	// mostly rejected at admission, the sample period elapsed at least
	// once (steps >> 10*cap), and LRU — which has no admission filter or
	// sketch — reports rejects and resets of exactly zero.
	lfu, lru := lfuCtr.snapshot(), lruCtr.snapshot()
	if lfu.AdmissionRejects == 0 {
		t.Fatal("TinyLFU rejected nothing during a scan flood")
	}
	if lfu.SketchResets == 0 {
		t.Fatalf("TinyLFU never aged its sketch over %d touches at capacity %d", 2*steps, hot)
	}
	if lru.AdmissionRejects != 0 || lru.SketchResets != 0 {
		t.Fatalf("LRU reports policy decisions it cannot make: %+v", lru)
	}
	if lru.Evictions == 0 {
		t.Fatal("LRU evicted nothing under a working set twice its capacity")
	}
}

// TestTinyLFUAdmissionAndEvictionOrder walks the admission state
// machine one touch at a time on a capacity-4 cache: a cold candidate
// is rejected while its estimate is below the LRU victim's, each
// rejection counts, and the admission that finally lands evicts exactly
// the least-recently-used resident.
func TestTinyLFUAdmissionAndEvictionOrder(t *testing.T) {
	var ctr cacheCounters
	c := newTinyLFUCache(4, &ctr)

	// Residents 1..4, each touched twice: doorkeeper bit + one sketch
	// count gives every resident estimate 2. LRU order back-to-front is
	// 1, 2, 3, 4.
	for id := BlockID(1); id <= 4; id++ {
		if c.touch(id) {
			t.Fatalf("first touch of %d reported a hit", id)
		}
		if !c.touch(id) {
			t.Fatalf("second touch of %d reported a miss", id)
		}
	}

	// Candidate 5, touch 1: estimate 1 (doorkeeper only) vs victim's 2 —
	// rejected, block 1 stays resident.
	if c.touch(5) {
		t.Fatal("touch of absent block 5 reported a hit")
	}
	if got := ctr.snapshot(); got.AdmissionRejects != 1 || got.Evictions != 0 {
		t.Fatalf("after first rejected touch: %+v", got)
	}
	// Touch 2: estimate 2 (doorkeeper + sketch 1) — still not *strictly*
	// greater than the victim's 2, rejected again.
	c.touch(5)
	if got := ctr.snapshot(); got.AdmissionRejects != 2 || got.Evictions != 0 {
		t.Fatalf("after second rejected touch: %+v", got)
	}
	// Touch 3: estimate 3 beats 2 — admitted, evicting block 1 (the LRU
	// victim), not any hotter resident.
	c.touch(5)
	if got := ctr.snapshot(); got.AdmissionRejects != 2 || got.Evictions != 1 {
		t.Fatalf("after admission: %+v", got)
	}
	if c.len() != 4 {
		t.Fatalf("len() = %d after admission, want 4", c.len())
	}
	for _, id := range []BlockID{2, 3, 4, 5} {
		if !c.touch(id) {
			t.Fatalf("block %d missing after block 5's admission", id)
		}
	}
	if c.touch(1) {
		t.Fatal("block 1 still resident; admission evicted the wrong frame")
	}
}

// TestTinyLFUDoorkeeperReset pins the aging mechanics: reset clears the
// doorkeeper, halves every sketch estimate, counts itself, and fires on
// its own once the sample period (10x capacity touches) elapses.
func TestTinyLFUDoorkeeperReset(t *testing.T) {
	var ctr cacheCounters
	c := newTinyLFUCache(4, &ctr)

	for i := 0; i < 10; i++ {
		c.touch(7)
	}
	if !c.doorHas(7) {
		t.Fatal("doorkeeper lost block 7 after 10 touches")
	}
	before := c.estimate(7)
	if before < 5 {
		t.Fatalf("estimate(7) = %d after 10 touches, want >= 5", before)
	}

	c.reset()
	if got := ctr.snapshot().SketchResets; got != 1 {
		t.Fatalf("SketchResets = %d after explicit reset, want 1", got)
	}
	if c.doorHas(7) {
		t.Fatal("doorkeeper still set after reset")
	}
	// Halving drops the sketch component; the doorkeeper bonus is gone
	// until the next touch re-sets it.
	if after := c.estimate(7); after > before/2 {
		t.Fatalf("estimate(7) = %d after reset, want <= %d", after, before/2)
	}

	// Natural trigger: the sample period for capacity 4 is 40 touches.
	var ctr2 cacheCounters
	c2 := newTinyLFUCache(4, &ctr2)
	for i := 0; i < 40; i++ {
		c2.touch(BlockID(i%8 + 1))
	}
	if got := ctr2.snapshot().SketchResets; got != 1 {
		t.Fatalf("SketchResets = %d after one sample period, want 1", got)
	}

	// clear() empties frames and frequency state but is not an aging
	// reset: the counter must not move.
	c2.clear()
	if got := ctr2.snapshot().SketchResets; got != 1 {
		t.Fatalf("SketchResets = %d after clear, want still 1", got)
	}
	if c2.len() != 0 {
		t.Fatalf("len() = %d after clear", c2.len())
	}
	if c2.doorHas(1) {
		t.Fatal("doorkeeper survived clear")
	}
}

// TestTinyLFUEvictInvalidatesFrame checks the explicit-eviction path
// (Tracker.Free routes here): an evicted frame is gone, re-touching it
// is a miss, and evicting an absent block is a no-op.
func TestTinyLFUEvictInvalidatesFrame(t *testing.T) {
	var ctr cacheCounters
	c := newTinyLFUCache(4, &ctr)
	c.touch(1)
	c.touch(2)
	c.evict(1)
	if c.len() != 1 {
		t.Fatalf("len() = %d after evict, want 1", c.len())
	}
	if c.touch(1) {
		t.Fatal("evicted block 1 reported resident")
	}
	c.evict(99) // absent: no panic, no change
	if c.len() != 2 {
		t.Fatalf("len() = %d after no-op evict, want 2", c.len())
	}
}

// TestCacheStatsAggregation checks that a tracker and its query views
// report policy decisions into one shared counter set, and that the
// TinyLFU policy threads through Config untouched.
func TestCacheStatsAggregation(t *testing.T) {
	tr := NewTracker(Config{B: 4, MemBlocks: 2, Policy: PolicyTinyLFU})
	ids := make([]BlockID, 8)
	for i := range ids {
		ids[i] = tr.Alloc()
	}
	// Shared path: walk all 8 blocks through a 2-frame cache.
	for _, id := range ids {
		tr.Read(nil, id)
	}
	shared := tr.CacheStats()
	if shared.Evictions+shared.AdmissionRejects == 0 {
		t.Fatalf("no policy decisions after 8 reads through 2 frames: %+v", shared)
	}
	// View path: the same walk inside a query view must land in the same
	// counters.
	v := tr.BeginQuery()
	for _, id := range ids {
		tr.Read(v, id)
	}
	v.End()
	after := tr.CacheStats()
	if after == shared {
		t.Fatalf("view-path touches left CacheStats unchanged: %+v", after)
	}
}
