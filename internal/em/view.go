package em

import "time"

// A QueryView is a per-query window onto a Tracker: it shares the tracker's
// machine configuration and immutable block layout but owns a private,
// initially cold LRU cache and private I/O counters. Obtain one with
// Tracker.BeginQuery at the start of a read-only query and release it with
// End, which merges the counters into the tracker-wide totals atomically
// and returns the query's own Stats delta.
//
// The query passes the view to every charge and span method it issues
// (Read, Write, ReadRun, PathCost, ScanCost, BeginSpan, EndSpan); those
// charges land in the view, and charges given a nil view land on the
// shared path. Because the private cache starts cold and is never shared,
// a query's I/O count is a deterministic function of the query alone —
// identical whether queries run serially or in parallel — which is what
// lets concurrent measurements still validate the paper's cold-cache
// bounds.
//
// A view is not safe for simultaneous use: its counters are plain fields.
// A query may hand it to goroutines it spawns as long as their charges do
// not overlap in time (for example, each waited for before the next
// starts), and any number of views may be open at once. A view charges
// only the tracker that began it. Allocation (Alloc, AllocRun, Free,
// FreeRun, ReleaseBlocks, SortCost) mutates the structure and panics while
// any view is open on the tracker.
type QueryView struct {
	t     *Tracker
	cache *lruCache

	reads, writes, hits int64

	// Request-lifecycle limits, armed by SetLimits. limited gates the
	// whole check so an unlimited view pays one bool test per charge.
	limited    bool
	budget     int64
	deadline   time.Time
	untilCheck int32 // charges until the next time.Now deadline poll

	// trace buffers the query's completed spans when a TraceSink is
	// installed; spanDepth tracks span nesting and spanReads/Writes/Hits
	// accumulate the depth-0 deltas so End can attribute any residual.
	trace                           []TraceEvent
	spanDepth                       int32
	spanReads, spanWrites, spanHits int64

	ended bool
}

// BeginQuery opens a fresh, cold QueryView on the tracker and returns it.
// Charges passed the view land in it until End is called.
func (t *Tracker) BeginQuery() *QueryView {
	v := &QueryView{t: t, cache: newLRUCache(t.cfg.MemBlocks)}
	t.nviews.Add(1)
	return v
}

// Stats returns the view's counters so far. Blocks reports the tracker-wide
// allocation level: space is shared, and read-only queries never allocate.
func (v *QueryView) Stats() Stats {
	return Stats{
		Reads:  v.reads,
		Writes: v.writes,
		Hits:   v.hits,
		Blocks: v.t.blocks.Load(),
	}
}

// End closes the view, merges its counters into the tracker-wide totals
// with atomic adds, and returns the view's final Stats. Calling End again
// is a no-op that returns the same Stats, so it is safe to defer.
//
// When a TraceSink is installed, End also closes the query's trace: if
// the depth-0 spans do not account for the view's full counters, a
// synthetic PhaseUnattributed event covers the difference, so the depth-0
// deltas of the finished trace always sum exactly to the returned Stats.
// The sink is not told: the query's caller reads the trace through Trace
// and observes the query with its Stats.
func (v *QueryView) End() Stats {
	st := v.Stats()
	if v.ended {
		return st
	}
	v.ended = true
	if v.t.sink.Load() != nil {
		r := v.reads - v.spanReads
		w := v.writes - v.spanWrites
		h := v.hits - v.spanHits
		if r != 0 || w != 0 || h != 0 {
			v.trace = append(v.trace, TraceEvent{
				Phase: PhaseUnattributed, Level: -1,
				Reads: r, Writes: w, Hits: h,
			})
		}
	}
	v.t.nviews.Add(-1)
	v.t.reads.Add(v.reads)
	v.t.writes.Add(v.writes)
	v.t.hits.Add(v.hits)
	return st
}

// Trace returns the query's buffered span events — populated only while a
// TraceSink is installed on the tracker, and complete (including the
// residual PhaseUnattributed event, if any) once End has run. The slice
// is owned by the view; callers must copy it to retain it.
func (v *QueryView) Trace() []TraceEvent { return v.trace }

// read charges one block read against the private cache.
func (v *QueryView) read(id BlockID) {
	if v.cache.touch(id) {
		v.hits++
	} else {
		v.reads++
	}
	v.checkLimits()
}

// write charges one block write and makes the block resident privately.
func (v *QueryView) write(id BlockID) {
	v.cache.touch(id)
	v.writes++
	v.checkLimits()
}

// readRun mirrors Tracker.ReadRun against the private cache.
func (v *QueryView) readRun(id BlockID, n int) {
	if n <= v.t.cfg.MemBlocks {
		for i := 0; i < n; i++ {
			v.read(id + BlockID(i))
		}
		return
	}
	v.reads += int64(n)
	v.checkLimits()
}
