// Package dynamic turns the repository's static top-k structures into
// fully dynamic ones, used here exactly in the spirit of the paper: as
// one more black-box reduction. The overlay never looks inside a
// substructure — it only needs a Builder that constructs a static top-k
// structure over an arbitrary subset of the input, which every reduction
// constructor in this repository already is.
//
// Layout. Under every policy the live set is partitioned into
//
//   - a mutable tail of at most TailCap recently inserted items, kept
//     unindexed and scanned at O(TailCap/B) I/Os per query, and
//   - a ladder of static substructures ("levels"), slot j holding at
//     most TailCap·2^(j+1) items.
//
// How the ladder is maintained — when the tail is flushed, which levels
// are merged, when and how tombstones are compacted — is the pluggable
// part, selected by Options.Policy (a MaintenancePolicy):
//
//   - PolicyLogarithmic (the default) is the logarithmic method of
//     Bentley & Saxe: a full tail merges into the ladder carry-style,
//     absorbing every occupied level it passes, so each item is rebuilt
//     O(log n) times and the amortized insert cost is
//     O(log(n/TailCap) · Build(n)/n) I/Os. When tombstones exceed
//     DeadFrac of all baked-in items, a global rebuild compacts
//     everything into one fresh substructure.
//
//   - PolicyBuffered batches updates per level in the buffer-tree
//     spirit: each tail flush is built immediately as an independent run,
//     runs accumulate at a tier until tierFan of them merge into one run
//     a tier up, a tombstone-heavy run is partially rebuilt alone, and
//     there is no global rebuild. Each item is rebuilt only once per
//     tier — O(log₄(n/TailCap)) times — roughly halving the logarithmic
//     method's amortized insert I/Os.
//
// Both policies delete by marking the weight in its level's tombstone
// set (weights identify items uniquely under the paper's distinct-weights
// assumption) and discard a level outright the moment it is entirely
// dead; compaction of the remaining tombstones is where they differ, as
// above. All maintenance costs are amortized against the updates that
// caused them.
//
// Bulk updates go through InsertBatch/DeleteBatch: the whole batch is
// validated and then merged in a single maintenance pass, so m items pay
// one sorted merge instead of m per-item overlay costs.
//
// Query merges per-level candidates with the tail. A level is asked for
// about as many items as its own tombstones can hollow out of its top,
// not for k + |dead_j| whatever the query; once k candidates exist, later
// levels are read only above the running k-th weight τ through the
// paper's cost-monitored prioritized query. Each level contributes its k
// heaviest live matches (or all of them), so the final k-selection is
// exact (see TopK). The query path never consults the policy and mutates
// nothing, so queries inherit the concurrency contract of the static
// structures: any number may run in parallel (including through
// em.Tracker query views), per-query I/O stats are deterministic
// regardless of parallelism, and answers are identical under every
// policy.
//
// All substructure build I/Os are charged to the Options.Tracker by the
// builders themselves, and a discarded substructure's blocks are returned
// via Tracker.ReleaseBlocks, so the tracker's counters directly measure
// the amortized update cost and live space (experiments E25 and E32).
package dynamic

import (
	"fmt"
	"math"
	"slices"

	"topk/internal/core"
	"topk/internal/em"
)

// Trace phase names emitted by the overlay (see em.TraceEvent and
// DESIGN.md §9). Query-path spans are emitted inside the caller's query
// view; flush and rebuild spans run on the shared path under the
// exclusive-update contract.
const (
	// PhaseLevel wraps one level's candidate queries plus tombstone
	// filtering. Level = overlay slot j, Arg = the number of items the
	// level's sub-queries returned (what the level paid to read).
	PhaseLevel = "dyn.level"
	// PhaseTail is the unindexed tail scan. Arg = |tail|.
	PhaseTail = "dyn.tail"
	// PhaseSelect is the final k-selection over the merged candidates.
	// Arg = |candidates|.
	PhaseSelect = "dyn.select"
	// PhaseFlush is a tail merge into the ladder (carry-style), covering
	// the absorbed levels' discard and the substructure build. Level =
	// the slot the batch settled in, Arg = batch size.
	PhaseFlush = "dyn.flush"
	// PhaseRebuild is the global compaction triggered at DeadFrac
	// (PolicyLogarithmic only). Arg = live items compacted.
	PhaseRebuild = "dyn.rebuild"
	// PhasePartial is PolicyBuffered maintenance that rebuilds a strict
	// subset of the structure: a tier merge (Level = the tier merged) or
	// a single run's tombstone compaction (Level = the run's slot).
	// Arg = items rebuilt.
	PhasePartial = "dyn.partial"
)

// maxCap caps capacity formulas clear of integer overflow.
const maxCap = math.MaxInt / 2

// Builder constructs one static top-k substructure over a subset of the
// input. The overlay owns the slice it passes and never mutates it after
// the call. Builders are invoked during New, Insert and DeleteWeight —
// never on the query path.
type Builder[Q, V any] func(items []core.Item[V]) (core.TopK[Q, V], error)

// Options configures the overlay.
type Options struct {
	// Tracker, when non-nil, is charged the overlay's own scan costs
	// (tail scans, candidate k-selection) and has substructure blocks
	// released on discard. Substructure builds and queries charge it
	// through the builders' own closures.
	Tracker *em.Tracker
	// TailCap is the insert-buffer capacity; reaching it triggers a merge
	// into the level ladder. Default 64 (one block of the paper's minimum
	// block size).
	TailCap int
	// DeadFrac is the tombstone-compaction threshold. Under
	// PolicyLogarithmic it triggers a global rebuild when tombstones
	// exceed this fraction of all items baked into substructures; under
	// PolicyBuffered it triggers a partial rebuild of any single run
	// whose own tombstones exceed it. Default 0.5.
	DeadFrac float64
	// Policy selects the structural-maintenance strategy. Nil defaults
	// to PolicyLogarithmic, the pre-seam behavior.
	Policy MaintenancePolicy
}

func (o *Options) fill() {
	if o.TailCap <= 0 {
		o.TailCap = 64
	}
	if o.DeadFrac <= 0 || o.DeadFrac >= 1 {
		o.DeadFrac = 0.5
	}
	if o.Policy == nil {
		o.Policy = PolicyLogarithmic
	}
}

// Stats is a snapshot of the overlay's shape and update activity.
type Stats struct {
	Levels     int // occupied levels
	Live       int // live items (levels minus tombstones, plus tail)
	Tail       int // items in the mutable tail
	Tombstones int // dead items still baked into substructures

	Inserts, Deletes int64
	Flushes          int64 // tail/bulk merges into the ladder
	Rebuilds         int64 // global compactions (PolicyLogarithmic)
	// PartialRebuilds counts PolicyBuffered maintenance operations that
	// rebuilt a strict subset of the structure: tier merges and
	// single-run tombstone compactions.
	PartialRebuilds int64
	// BuiltItems counts items passed through substructure builds since
	// construction (including the initial build); BuiltItems/Inserts is
	// the measured rebuild amplification behind the amortized bound.
	BuiltItems int64

	// BufferedRuns and BufferedItems describe PolicyBuffered's pending
	// work: runs (and the items in them) buffered at some tier awaiting
	// that tier's next merge. Zero under PolicyLogarithmic.
	BufferedRuns  int
	BufferedItems int
}

// level is one static substructure plus its delete bookkeeping.
type level[Q, V any] struct {
	sub    core.TopK[Q, V]
	pri    core.Prioritized[Q, V] // may be nil; scan fallback then applies
	items  []core.Item[V]         // exactly what sub was built over
	dead   map[float64]struct{}   // tombstoned weights among items
	blocks int64                  // tracker blocks attributed to sub
	// heavy lists the weights of items heaviest first; the query path
	// reads its prefix to see how deep the level's top is hollowed out.
	heavy []float64
}

func (l *level[Q, V]) live() int { return len(l.items) - len(l.dead) }

// Overlay is the dynamized top-k structure. It implements core.TopK,
// core.Prioritized and the facade's updatable surface (Insert,
// DeleteWeight, Items). Updates require exclusive access; queries may run
// concurrently with each other.
type Overlay[Q, V any] struct {
	match core.MatchFunc[Q, V]
	build Builder[Q, V]
	opts  Options
	maint maintainer[Q, V] // opts.Policy instantiated for this overlay

	levels  []*level[Q, V] // slot j: nil or ≤ TailCap·2^(j+1) items
	tail    []core.Item[V]
	tailPos map[float64]int // weight -> index in tail
	where   map[float64]int // live weight -> occupied level index

	builtTotal int // Σ len(level.items)
	deadTotal  int // Σ len(level.dead)

	stats Stats
}

// New builds an overlay over the initial items (weights finite and
// distinct), placed as a single substructure like a static build.
func New[Q, V any](
	items []core.Item[V],
	match core.MatchFunc[Q, V],
	build Builder[Q, V],
	opts Options,
) (*Overlay[Q, V], error) {
	opts.fill()
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	o := &Overlay[Q, V]{
		match: match, build: build, opts: opts,
		tailPos: make(map[float64]int), where: make(map[float64]int),
	}
	o.maint = newMaintainer(o)
	if len(items) > 0 {
		batch := make([]core.Item[V], len(items))
		copy(batch, items)
		if err := o.maint.initial(batch); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// capOf is level j's capacity, TailCap·2^(j+1).
func (o *Overlay[Q, V]) capOf(j int) int {
	if j >= 40 {
		return maxCap
	}
	return o.opts.TailCap << uint(j+1)
}

// N returns the number of live items.
func (o *Overlay[Q, V]) N() int { return o.builtTotal - o.deadTotal + len(o.tail) }

// Stats returns a snapshot of the overlay's instrumentation.
func (o *Overlay[Q, V]) Stats() Stats {
	st := o.stats
	for _, lvl := range o.levels {
		if lvl != nil {
			st.Levels++
		}
	}
	st.Live, st.Tail, st.Tombstones = o.N(), len(o.tail), o.deadTotal
	o.maint.addStats(&st)
	return st
}

// Policy reports the maintenance policy this overlay runs under.
func (o *Overlay[Q, V]) Policy() MaintenancePolicy { return o.maint.policy() }

// Items returns a snapshot of the live items in unspecified order.
func (o *Overlay[Q, V]) Items() []core.Item[V] {
	out := make([]core.Item[V], 0, o.N())
	for _, lvl := range o.levels {
		if lvl != nil {
			out = appendLive(out, lvl)
		}
	}
	return append(out, o.tail...)
}

// contains reports whether weight w is live anywhere in the overlay.
func (o *Overlay[Q, V]) contains(w float64) bool {
	if _, ok := o.tailPos[w]; ok {
		return true
	}
	_, ok := o.where[w]
	return ok
}

// Insert adds an item: O(1) tail append, plus the policy's amortized
// merge cost when the tail fills.
func (o *Overlay[Q, V]) Insert(it core.Item[V]) error {
	if math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
		return fmt.Errorf("dynamic: non-finite weight %v", it.Weight)
	}
	if o.contains(it.Weight) {
		return fmt.Errorf("dynamic: duplicate weight %v", it.Weight)
	}
	o.tailPos[it.Weight] = len(o.tail)
	o.tail = append(o.tail, it)
	o.stats.Inserts++
	o.maint.afterInsert()
	return nil
}

// InsertBatch adds a batch of items in one maintenance pass: the batch is
// validated up front (atomically — on error nothing is inserted), small
// batches simply extend the tail, and anything larger is merged into the
// ladder together with the drained tail as a single bulk load. m items
// therefore pay one sorted merge — charged as Tracker.SortCost plus one
// policy merge — instead of m per-item overlay costs.
func (o *Overlay[Q, V]) InsertBatch(items []core.Item[V]) error {
	seen := make(map[float64]struct{}, len(items))
	for _, it := range items {
		if math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return fmt.Errorf("dynamic: non-finite weight %v", it.Weight)
		}
		if _, dup := seen[it.Weight]; dup {
			return fmt.Errorf("dynamic: duplicate weight %v", it.Weight)
		}
		if o.contains(it.Weight) {
			return fmt.Errorf("dynamic: duplicate weight %v", it.Weight)
		}
		seen[it.Weight] = struct{}{}
	}
	if len(items) == 0 {
		return nil
	}
	o.stats.Inserts += int64(len(items))
	if len(o.tail)+len(items) < o.opts.TailCap {
		for _, it := range items {
			o.tailPos[it.Weight] = len(o.tail)
			o.tail = append(o.tail, it)
		}
		return nil
	}
	batch := make([]core.Item[V], 0, len(o.tail)+len(items))
	batch = append(batch, o.tail...)
	batch = append(batch, items...)
	o.tail = o.tail[:0]
	clear(o.tailPos)
	if o.opts.Tracker != nil {
		o.opts.Tracker.SortCost(len(items))
	}
	return o.maint.bulkLoad(batch)
}

// DeleteWeight removes the item with the given weight and reports whether
// it was present: O(1) for tail items, a tombstone mark (plus the
// policy's amortized compaction) for baked-in ones.
func (o *Overlay[Q, V]) DeleteWeight(w float64) bool {
	found, j, discarded := o.deleteOne(w)
	if !found {
		return false
	}
	if j >= 0 {
		o.maint.afterDelete(j, discarded)
	}
	return true
}

// DeleteBatch removes the items with the given weights and reports how
// many were present; absent weights are skipped. Tombstones are marked
// item by item (fully dead levels are still discarded on the spot), and
// the policy's compaction check runs once for the whole batch, so a bulk
// delete triggers at most one maintenance pass.
func (o *Overlay[Q, V]) DeleteBatch(ws []float64) int {
	found := 0
	for _, w := range ws {
		if ok, _, _ := o.deleteOne(w); ok {
			found++
		}
	}
	if found > 0 {
		o.maint.afterDeleteBatch()
	}
	return found
}

// deleteOne is the policy-independent half of a delete: tail removal or
// tombstone marking, plus the unconditional discard of a fully dead
// level. It reports the slot tombstoned (-1 for tail removals) and
// whether that slot was discarded; the caller runs policy maintenance.
func (o *Overlay[Q, V]) deleteOne(w float64) (found bool, j int, discarded bool) {
	if pos, ok := o.tailPos[w]; ok {
		last := len(o.tail) - 1
		moved := o.tail[last]
		o.tail[pos] = moved
		o.tail = o.tail[:last]
		if moved.Weight != w {
			o.tailPos[moved.Weight] = pos
		}
		delete(o.tailPos, w)
		o.stats.Deletes++
		return true, -1, false
	}
	j, ok := o.where[w]
	if !ok {
		return false, -1, false
	}
	lvl := o.levels[j]
	lvl.dead[w] = struct{}{}
	delete(o.where, w)
	o.deadTotal++
	o.stats.Deletes++
	if lvl.live() == 0 {
		o.discard(j)
		return true, j, true
	}
	return true, j, false
}

// drainTail detaches the tail's contents as a batch, resetting the
// buffer.
func (o *Overlay[Q, V]) drainTail() []core.Item[V] {
	batch := make([]core.Item[V], len(o.tail))
	copy(batch, o.tail)
	o.tail = o.tail[:0]
	clear(o.tailPos)
	return batch
}

// buildAt constructs a substructure over batch and installs it at level j,
// attributing the tracker blocks it allocated for release on discard.
func (o *Overlay[Q, V]) buildAt(j int, batch []core.Item[V]) error {
	if len(batch) == 0 {
		return nil
	}
	for j >= len(o.levels) {
		o.levels = append(o.levels, nil)
	}
	var before int64
	if o.opts.Tracker != nil {
		before = o.opts.Tracker.Stats().Blocks
	}
	sub, err := o.build(batch)
	if err != nil {
		return err
	}
	heavy := make([]float64, len(batch))
	for i, it := range batch {
		heavy[i] = it.Weight
	}
	slices.Sort(heavy)
	slices.Reverse(heavy)
	lvl := &level[Q, V]{
		sub: sub, pri: core.PrioritizedOf(sub),
		items: batch, dead: make(map[float64]struct{}), heavy: heavy,
	}
	if o.opts.Tracker != nil {
		lvl.blocks = o.opts.Tracker.Stats().Blocks - before
	}
	o.levels[j] = lvl
	for _, it := range batch {
		o.where[it.Weight] = j
	}
	o.builtTotal += len(batch)
	o.stats.BuiltItems += int64(len(batch))
	return nil
}

// discard drops level j, releasing its space and bookkeeping.
func (o *Overlay[Q, V]) discard(j int) {
	lvl := o.levels[j]
	o.levels[j] = nil
	o.builtTotal -= len(lvl.items)
	o.deadTotal -= len(lvl.dead)
	for _, it := range lvl.items {
		if _, gone := lvl.dead[it.Weight]; !gone {
			delete(o.where, it.Weight)
		}
	}
	if o.opts.Tracker != nil {
		o.opts.Tracker.ReleaseBlocks(lvl.blocks)
	}
	o.maint.onDiscard(j)
}

// single returns the only occupied level, if exactly one exists.
func (o *Overlay[Q, V]) single() (*level[Q, V], bool) {
	var found *level[Q, V]
	for _, lvl := range o.levels {
		if lvl == nil {
			continue
		}
		if found != nil {
			return nil, false
		}
		found = lvl
	}
	return found, found != nil
}

// TopK answers a top-k query: every level contributes its k heaviest
// live matches (or all of them), the tail is scanned, and a k-selection
// over the merged candidates finishes. The result is weight-descending
// with min(k, |q(D)|) items. Read-only; every charge and span goes to v
// (nil: the shared path).
//
// Levels whose sized fetch is the exact size anyway (no or few
// tombstones) are visited first. Within that split a level goes ahead of
// any level whose live weights all lie below its own k-th heaviest live
// weight, and otherwise larger levels go first (see visitOrder). After
// each level only the k heaviest candidates are kept. A level is read in
// one of two ways:
//
//   - Sized fetch, until k candidates exist (level.top). The level is
//     asked for s = max(⌈2k·|items_j|/|live_j|⌉, r_j) items, capped at
//     the exact size k + |dead_j| (or |items_j|, if less). r_j is the
//     depth at which the level's heaviest-first weights have shown k
//     live ones; it ignores q, and it catches levels whose heaviest items
//     were deleted. A second query, at the exact size, runs only if the
//     first came back full (s items, s below the cap) holding fewer than
//     k live items. The fetch thus ends in one of three ways. Either it
//     holds k live items, which are then the level's k heaviest live
//     matches. Or it returned fewer than s items, so the level has no
//     more matches. Or it used the exact size, whose at most |dead_j|
//     dead items leave the k heaviest live.
//   - τ-cut, once k candidates exist and the level has a prioritized
//     structure (level.above). With τ the k-th heaviest candidate, only
//     the level's matches of weight ≥ τ can enter the answer: a level
//     whose heaviest live weight is below τ is skipped unread, and
//     otherwise the paper's cost-monitored query collects them,
//     terminated after k + |dead_j| + 1 items. A completed query has seen
//     every match ≥ τ. An abort means more than k + |dead_j| matches lie
//     above τ; at most |dead_j| of them are dead, so the fallback
//     top-(k + |dead_j|) query holds the level's k heaviest live matches.
//
// The weights walk behind r_j and the visit order reads at most
// k + |dead_j| entries per level; like the tombstone set, it is overlay
// bookkeeping and is not charged.
func (o *Overlay[Q, V]) TopK(v *em.QueryView, q Q, k int) []core.Item[V] {
	// No answer exceeds the live count, and the clamp keeps k + |dead_j|
	// within the item count, clear of overflow.
	k = min(k, o.N())
	if k <= 0 {
		return nil
	}
	// Fast path: one substructure, no tail, no tombstones — the static
	// shape; the substructure's own answer is the overlay's.
	if lvl, only := o.single(); only && len(o.tail) == 0 && len(lvl.dead) == 0 {
		return lvl.sub.TopK(v, q, k)
	}
	tr := o.opts.Tracker
	var cand []core.Item[V]
	var visits [64]visit
	for _, vis := range o.visitOrder(visits[:0], k) {
		lvl := o.levels[vis.slot]
		sp := tr.BeginSpan(v)
		var read int
		switch {
		case len(cand) < k || lvl.pri == nil:
			cand, read = lvl.top(v, q, k, vis, cand)
		case vis.top >= cand[k-1].Weight: // else no live item reaches τ
			cand, read = lvl.above(v, q, k, cand[k-1].Weight, cand)
		}
		cand = core.TopKOf(cand, k)
		tr.EndSpan(v, sp, PhaseLevel, vis.slot, int64(read))
	}
	if len(o.tail) > 0 {
		sp := tr.BeginSpan(v)
		o.charge(v, len(o.tail))
		for _, it := range o.tail {
			if o.match(q, it.Value) {
				cand = append(cand, it)
			}
		}
		tr.EndSpan(v, sp, PhaseTail, -1, int64(len(o.tail)))
	}
	sp := tr.BeginSpan(v)
	o.charge(v, len(cand)) // final k-selection over the merged candidates
	res := core.TopKOf(cand, k)
	tr.EndSpan(v, sp, PhaseSelect, -1, int64(len(cand)))
	return res
}

// visit is an occupied level as the query path sees it before reading
// it: what the level's heaviest-first weights show, independent of q.
type visit struct {
	slot     int
	top, kth float64 // heaviest and k-th heaviest live weight (-Inf: none)
	// fetch is the sized fetch's first request s, and exact its cap: the
	// exact size k + |dead_j|, but no more than the level holds.
	fetch, exact int
}

// rank reads l's heaviest-first weights down to the k-th live one (at most
// k + |dead_j| entries) and sizes the fetch from them: s asks for 2k live
// items were the tombstones spread evenly, and for no less than r_j, the
// depth of the k-th live weight.
func (l *level[Q, V]) rank(slot, k int) visit {
	vis := visit{slot: slot, top: math.Inf(-1), kth: math.Inf(-1)}
	depth, live := len(l.heavy), 0
	for i, w := range l.heavy {
		if _, gone := l.dead[w]; gone {
			continue
		}
		if live == 0 {
			vis.top = w
		}
		if live++; live == k {
			vis.kth, depth = w, i+1
			break
		}
	}
	vis.exact = min(k+len(l.dead), len(l.items))
	vis.fetch = vis.exact
	if even := math.Ceil(2 * float64(k) * float64(len(l.items)) / float64(l.live())); even < float64(vis.exact) {
		vis.fetch = max(int(even), depth)
	}
	return vis
}

// visitOrder appends the occupied levels to buf in visit order. Level a
// goes ahead of level b when
//
//   - a's sized fetch already asks the exact size and b's does not. Such
//     a level (one with no or few tombstones) costs what the plain
//     k + |dead_j| query cost, so visiting these first sets τ before any
//     hollowed level is reached, and the hollowed level is then read by
//     the τ-cut rather than a guessed size. A black box's cost need not
//     grow with the size asked: Theorem 2 answers any k above n/4 by one
//     O(n/B) scan, which can undercut its ladder at a smaller k where the
//     max structure is costly.
//   - otherwise, a dominates b: a's k-th heaviest live weight exceeds
//     every live weight of b. Once a has supplied k candidates b can add
//     nothing, and the τ-cut skips it unread. Under rising weights every
//     newer level dominates the older ones.
//   - otherwise, a has more live items: its k-th heaviest match tends to
//     weigh more, which raises τ for the levels after it.
//
// Ties keep slot order. Domination is antisymmetric but not transitive,
// so the order is the result of insertion in slot order.
func (o *Overlay[Q, V]) visitOrder(buf []visit, k int) []visit {
	ahead := func(a, b visit) bool {
		if ea, eb := a.fetch == a.exact, b.fetch == b.exact; ea != eb {
			return ea
		}
		switch {
		case a.kth > b.top:
			return true
		case b.kth > a.top:
			return false
		}
		return o.levels[a.slot].live() > o.levels[b.slot].live()
	}
	for j, lvl := range o.levels {
		if lvl == nil {
			continue
		}
		buf = append(buf, lvl.rank(j, k))
		for i := len(buf) - 1; i > 0 && ahead(buf[i], buf[i-1]); i-- {
			buf[i-1], buf[i] = buf[i], buf[i-1]
		}
	}
	return buf
}

// top appends the level's k heaviest live matches (all of them, if fewer)
// to cand through the sized fetch, and reports how many items its
// sub-queries returned.
func (l *level[Q, V]) top(v *em.QueryView, q Q, k int, vis visit, cand []core.Item[V]) ([]core.Item[V], int) {
	res := l.sub.TopK(v, q, vis.fetch)
	mark := len(cand)
	cand = l.keepLive(cand, res)
	if len(res) == vis.fetch && vis.fetch < vis.exact && len(cand)-mark < k {
		read := len(res)
		res = l.sub.TopK(v, q, k+len(l.dead))
		return l.keepLive(cand[:mark], res), read + len(res)
	}
	return cand, len(res)
}

// above appends the level's live matches of weight ≥ tau to cand — or,
// when the cost-monitored query aborts, its k heaviest live matches — and
// reports how many items its sub-queries returned.
func (l *level[Q, V]) above(v *em.QueryView, q Q, k int, tau float64, cand []core.Item[V]) ([]core.Item[V], int) {
	exact := k + len(l.dead)
	got, complete := core.CollectAtMost(v, l.pri, q, tau, exact)
	if complete {
		return l.keepLive(cand, got), len(got)
	}
	res := l.sub.TopK(v, q, exact)
	return l.keepLive(cand, res), len(got) + len(res)
}

// ReportAbove streams every live item satisfying q with weight ≥ tau,
// level by level then the tail, filtering tombstones; emit returning false
// stops the whole traversal. Read-only. This makes the overlay its own
// prioritized structure, so facades can serve ReportAbove without a second
// black box.
func (o *Overlay[Q, V]) ReportAbove(v *em.QueryView, q Q, tau float64, emit func(core.Item[V]) bool) {
	stopped := false
	for _, lvl := range o.levels {
		if lvl == nil || stopped {
			continue
		}
		if lvl.pri != nil {
			lvl.pri.ReportAbove(v, q, tau, func(it core.Item[V]) bool {
				if _, gone := lvl.dead[it.Weight]; gone {
					return true
				}
				if !emit(it) {
					stopped = true
					return false
				}
				return true
			})
			continue
		}
		o.charge(v, len(lvl.items))
		for _, it := range lvl.items {
			if stopped {
				break
			}
			if it.Weight < tau || !o.match(q, it.Value) {
				continue
			}
			if _, gone := lvl.dead[it.Weight]; gone {
				continue
			}
			if !emit(it) {
				stopped = true
			}
		}
	}
	if stopped || len(o.tail) == 0 {
		return
	}
	o.charge(v, len(o.tail))
	for _, it := range o.tail {
		if it.Weight >= tau && o.match(q, it.Value) {
			if !emit(it) {
				return
			}
		}
	}
}

// Prioritized exposes the overlay's merged prioritized view (itself).
func (o *Overlay[Q, V]) Prioritized() core.Prioritized[Q, V] { return o }

// charge bills an O(n/B) scan to v on the tracker, if any.
func (o *Overlay[Q, V]) charge(v *em.QueryView, nItems int) {
	if o.opts.Tracker != nil {
		o.opts.Tracker.ScanCost(v, nItems)
	}
}

// appendLive appends lvl's non-tombstoned items to dst.
func appendLive[Q, V any](dst []core.Item[V], lvl *level[Q, V]) []core.Item[V] {
	return lvl.keepLive(dst, lvl.items)
}

// keepLive appends the items of from that are not tombstoned in l to dst.
func (l *level[Q, V]) keepLive(dst, from []core.Item[V]) []core.Item[V] {
	for _, it := range from {
		if _, gone := l.dead[it.Weight]; !gone {
			dst = append(dst, it)
		}
	}
	return dst
}
