// Package em simulates the external-memory (EM) model of Aggarwal and
// Vitter, the cost model in which the paper states all of its bounds.
//
// A machine has M words of internal memory and a disk formatted into blocks
// of B words each (the paper assumes B >= 64 and M >= 2B). An I/O reads one
// block into memory or writes one block back. The cost of an algorithm is
// the number of I/Os it performs; the space of a structure is the number of
// blocks it occupies.
//
// Data structures in this repository do not serialize their nodes to a real
// disk. Instead they organize their nodes into logical blocks and charge
// every block touch through a Tracker, which maintains a cache of M/B
// frames (touches that hit the cache are free, exactly as in the model) and
// counts the misses. This measures precisely the quantity the paper's
// theorems bound, while keeping the structures themselves ordinary Go
// values that tests can inspect.
//
// # Concurrency
//
// A Tracker separates the immutable machine description (Config, the block
// allocation ledger) from the mutable I/O accounting. Builds and updates
// must be serialized by the caller, but read-only queries may run
// concurrently: each query calls BeginQuery to obtain a private QueryView —
// its own cold LRU cache and counters — and passes it to every charge and
// span method it issues (Read, PathCost, ScanCost, BeginSpan, …) until End
// merges the view into the tracker-wide totals with atomic adds. A nil view
// charges the shared cache (mutex-guarded) and shared counters (atomic), so
// single-goroutine use keeps its exact previous semantics.
package em

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BlockID identifies one logical disk block. The zero value is invalid.
type BlockID uint64

// Config fixes the machine parameters of the simulated EM machine.
type Config struct {
	// B is the number of words per block. The paper assumes B >= 64.
	B int
	// MemBlocks is the number of block frames that fit in memory (M/B).
	// The paper requires M >= 2B, i.e. MemBlocks >= 2.
	MemBlocks int
}

// DefaultConfig mirrors the paper's running assumptions: B = 64 words and a
// small memory of 8 frames, so that cache effects stay secondary to the
// asymptotic I/O counts being measured.
func DefaultConfig() Config { return Config{B: 64, MemBlocks: 8} }

func (c Config) validate() error {
	if c.B < 1 {
		return fmt.Errorf("em: block size B = %d, need >= 1", c.B)
	}
	if c.MemBlocks < 2 {
		return fmt.Errorf("em: memory holds %d blocks, model requires M >= 2B", c.MemBlocks)
	}
	return nil
}

// Stats is a snapshot of I/O and space counters.
type Stats struct {
	Reads  int64 // block reads that missed the cache
	Writes int64 // block writes
	Hits   int64 // block touches served from the memory cache
	Blocks int64 // blocks currently allocated (space in the model)
}

// IOs returns the total I/O count (reads + writes), the paper's cost metric.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Sub returns the counter deltas s - t. Blocks is copied from s, since
// space is a level, not a flow.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:  s.Reads - t.Reads,
		Writes: s.Writes - t.Writes,
		Hits:   s.Hits - t.Hits,
		Blocks: s.Blocks,
	}
}

// Tracker charges I/Os for block touches on one simulated EM machine.
//
// Structure builds and updates must not run concurrently with anything else
// on the same tracker, but read-only queries may: wrap each query in
// BeginQuery/End and pass its private QueryView to every charge, or pass a
// nil view for the shared path, which is itself safe (mutex-guarded cache,
// atomic counters) at the price of queries sharing one cache. See the
// package comment.
type Tracker struct {
	cfg Config

	next   atomic.Uint64 // next BlockID to hand out
	blocks atomic.Int64
	reads  atomic.Int64
	writes atomic.Int64
	hits   atomic.Int64

	mu    sync.Mutex // guards the shared-path cache
	cache *lruCache

	// nviews counts open query views; while it is nonzero the
	// allocation ledger must not change (see checkMutable).
	nviews atomic.Int32

	// sink is the installed trace sink, nil when tracing is off; see
	// trace.go. spanDepth tracks shared-path span nesting.
	sink      atomic.Pointer[sinkBox]
	spanDepth atomic.Int32
}

// NewTracker builds a tracker for the given machine configuration.
// It panics if the configuration violates the model's constraints, since a
// misconfigured cost model would silently invalidate every measurement.
func NewTracker(cfg Config) *Tracker {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	t := &Tracker{cfg: cfg, cache: newLRUCache(cfg.MemBlocks)}
	t.next.Store(1)
	return t
}

// B returns the block size in words.
func (t *Tracker) B() int { return t.cfg.B }

// Config returns the machine configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Stats returns a snapshot of the tracker-wide counters. Charges held by
// in-flight QueryViews are not included until their End merges them.
func (t *Tracker) Stats() Stats {
	return Stats{
		Reads:  t.reads.Load(),
		Writes: t.writes.Load(),
		Hits:   t.hits.Load(),
		Blocks: t.blocks.Load(),
	}
}

// ResetCounters zeroes the tracker-wide I/O counters (reads, writes, hits)
// but keeps the allocation count and cache contents, so that build cost and
// query cost can be measured separately. It must not race with in-flight
// queries.
func (t *Tracker) ResetCounters() {
	t.reads.Store(0)
	t.writes.Store(0)
	t.hits.Store(0)
}

// DropCache evicts every block from the shared cache, forcing subsequent
// shared-path touches to pay full I/O cost. Queries measured from a cold
// cache reflect the paper's worst-case accounting. (QueryViews always start
// cold and are unaffected.)
func (t *Tracker) DropCache() {
	t.mu.Lock()
	t.cache.clear()
	t.mu.Unlock()
}

// Alloc reserves one new block and returns its ID. Allocation itself
// charges one write I/O (the block must reach disk at least once).
// Allocation mutates the structure, so it panics while any read-only
// query view is open on the tracker.
func (t *Tracker) Alloc() BlockID {
	t.checkMutable("Alloc")
	id := BlockID(t.next.Add(1) - 1)
	t.blocks.Add(1)
	t.writes.Add(1)
	t.mu.Lock()
	t.cache.touch(id)
	t.mu.Unlock()
	return id
}

// AllocRun reserves n consecutive blocks (e.g. the leaf level of a static
// structure) and returns the first ID. It charges n write I/Os.
func (t *Tracker) AllocRun(n int) BlockID {
	if n <= 0 {
		panic("em: AllocRun with n <= 0")
	}
	t.checkMutable("AllocRun")
	id := BlockID(t.next.Add(uint64(n)) - uint64(n))
	t.blocks.Add(int64(n))
	t.writes.Add(int64(n))
	return id
}

// Free releases a block. Space accounting only; no I/O is charged.
func (t *Tracker) Free(id BlockID) {
	if id == 0 {
		return
	}
	t.checkMutable("Free")
	t.blocks.Add(-1)
	t.mu.Lock()
	t.cache.evict(id)
	t.mu.Unlock()
}

// FreeRun releases n consecutive blocks starting at id.
func (t *Tracker) FreeRun(id BlockID, n int) {
	for i := 0; i < n; i++ {
		t.Free(id + BlockID(i))
	}
}

// ReleaseBlocks returns n blocks to the model's free space without naming
// their IDs — the bulk-discard path used when an entire substructure is
// thrown away (e.g. a merge of the dynamization overlay). Space accounting
// only; no I/O is charged, and any stale cache entries for the discarded
// blocks simply age out of the LRU (block IDs are never reused).
func (t *Tracker) ReleaseBlocks(n int64) {
	if n <= 0 {
		return
	}
	t.checkMutable("ReleaseBlocks")
	t.blocks.Add(-n)
}

// checkMutable panics while any read-only query view is open on the
// tracker, whichever goroutine holds it: builds and updates need exclusive
// access, so a ledger change during a query is a caller bug, and the panic
// turns a silent accounting corruption into an immediate test failure.
func (t *Tracker) checkMutable(op string) {
	if t.nviews.Load() != 0 {
		panic("em: " + op + " while a read-only query view is open")
	}
}

// own panics unless v was begun on t: a view collects only its own
// tracker's charges.
func (t *Tracker) own(v *QueryView) {
	if v.t != t {
		panic("em: query view charged against another tracker")
	}
}

// Read charges for reading one block to v, or to the shared path when v is
// nil: a cache hit is free, a miss costs one I/O and makes the block
// resident.
func (t *Tracker) Read(v *QueryView, id BlockID) {
	if id == 0 {
		panic("em: read of invalid block 0")
	}
	if v != nil {
		t.own(v)
		v.read(id)
		return
	}
	t.mu.Lock()
	hit := t.cache.touch(id)
	t.mu.Unlock()
	if hit {
		t.hits.Add(1)
	} else {
		t.reads.Add(1)
	}
}

// Write charges one write I/O for block id to v (nil: the shared path)
// and makes the block resident.
func (t *Tracker) Write(v *QueryView, id BlockID) {
	if id == 0 {
		panic("em: write of invalid block 0")
	}
	if v != nil {
		t.own(v)
		v.write(id)
		return
	}
	t.mu.Lock()
	t.cache.touch(id)
	t.mu.Unlock()
	t.writes.Add(1)
}

// ReadRun charges v (nil: the shared path) for a sequential scan of n
// consecutive blocks starting at id. Sequential scans of runs longer than
// the cache bypass it (as a real scan would flush itself), so each block
// costs one read.
func (t *Tracker) ReadRun(v *QueryView, id BlockID, n int) {
	if n <= 0 {
		return
	}
	if v != nil {
		t.own(v)
		v.readRun(id, n)
		return
	}
	if n <= t.cfg.MemBlocks {
		for i := 0; i < n; i++ {
			t.Read(nil, id+BlockID(i))
		}
		return
	}
	t.reads.Add(int64(n))
}

// PathCost charges v (nil: the shared path) the I/Os of walking `nodes`
// nodes of a bounded-degree search tree stored in a blocked (van Emde Boas
// style) layout, in which any top-down walk of d nodes touches
// O(d / log₂B) blocks — the standard way EM structures store binary search
// trees. One read is charged per ⌊log₂B⌋ nodes walked.
func (t *Tracker) PathCost(v *QueryView, nodes int) {
	if nodes <= 0 {
		return
	}
	n := pathReads(nodes, t.cfg.B)
	if v != nil {
		t.own(v)
		v.addReads(n)
		return
	}
	t.reads.Add(n)
}

// pathReads is the blocked-layout cost formula shared by the tracker and
// its query views.
func pathReads(nodes, b int) int64 {
	per := 1
	for ; b > 1; b >>= 1 {
		per++
	}
	return int64((nodes + per - 1) / per)
}

// ScanCost charges v (nil: the shared path) the I/Os of scanning nItems
// items packed B-per-block: ceil(nItems/B) reads. It is the standard
// O(t/B) output term. The scan is charged directly (no cache interaction)
// because reporting output is written to the query answer, not revisited.
func (t *Tracker) ScanCost(v *QueryView, nItems int) {
	if nItems <= 0 {
		return
	}
	n := int64((nItems + t.cfg.B - 1) / t.cfg.B)
	if v != nil {
		t.own(v)
		v.addReads(n)
		return
	}
	t.reads.Add(n)
}

// SortCost charges one external-memory merge sort of nItems items packed
// B-per-block: ceil(n/B) blocks read and written per pass, with
// max(1, ⌈log_{M/B}(n/B)⌉) passes — the textbook EM sorting bound
// (Aggarwal & Vitter). It is the bulk-ingest charge path: merging a
// validated batch into a dynamized structure pays one streaming sort of
// the batch, not per-item costs. Update-path only: it panics while a query
// view is open.
func (t *Tracker) SortCost(nItems int) {
	t.checkMutable("SortCost")
	if nItems <= 0 {
		return
	}
	blocks := int64((nItems + t.cfg.B - 1) / t.cfg.B)
	fan := int64(t.cfg.MemBlocks)
	passes := int64(1)
	for capacity := fan; capacity < blocks; capacity *= fan {
		passes++
	}
	t.reads.Add(blocks * passes)
	t.writes.Add(blocks * passes)
}

// SeqBlocks returns how many B-word blocks a byte stream of the given
// length spans at 8 bytes per word — the block count of one sequential
// pass over it.
func (t *Tracker) SeqBlocks(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	words := (bytes + 7) / 8
	return (words + int64(t.cfg.B) - 1) / int64(t.cfg.B)
}

// SnapshotCost charges the sequential writes of emitting a snapshot of
// the given byte length: ceil(bytes/8/B) write I/Os, the O(size/B)
// streaming cost. Snapshotting reads resident state and appends to a
// fresh stream, so no reads and no cache interaction are charged. It may
// run while queries hold open views; it takes no view, so the cost always
// lands on the shared counters.
func (t *Tracker) SnapshotCost(bytes int64) {
	t.writes.Add(t.SeqBlocks(bytes))
}

// RestoreAccounting runs fn — a restore that reconstructs structures in
// memory from a decoded snapshot — and then replaces whatever I/Os the
// reconstruction charged with the model cost of a warm start: one
// sequential read pass over the snapshot stream, ceil(bytes/8/B) reads.
//
// In a real deployment a restore deserializes blocks directly from disk
// and never re-runs the build algorithm; this simulator rebuilds the Go
// values (which routes through Alloc/Write as if building) and then
// rewrites the flow counters to what the paper's model would charge.
// Space (Blocks) is kept from the actual reconstruction, since the
// restored structure genuinely occupies that many blocks, and the cache
// is dropped so the restored machine starts cold. It must not run
// concurrently with queries on the same tracker.
func (t *Tracker) RestoreAccounting(bytes int64, fn func() error) error {
	before := t.Stats()
	if err := fn(); err != nil {
		return err
	}
	t.reads.Store(before.Reads + t.SeqBlocks(bytes))
	t.writes.Store(before.Writes)
	t.hits.Store(before.Hits)
	t.DropCache()
	return nil
}

// BlocksFor returns how many blocks are needed to store nItems items of
// wordsPerItem words each, packed contiguously.
func BlocksFor(nItems, wordsPerItem, b int) int64 {
	if nItems <= 0 {
		return 0
	}
	words := int64(nItems) * int64(wordsPerItem)
	return (words + int64(b) - 1) / int64(b)
}
