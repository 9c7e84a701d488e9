package dynamic

import (
	"fmt"
	"sort"

	"topk/internal/core"
)

// MaintenancePolicy selects the overlay's structural-maintenance
// strategy: when the tail is flushed, which substructures are merged,
// and when and how tombstones are compacted. The query path is policy
// independent — every policy keeps the live set partitioned into a
// mutable tail plus static substructures in the ladder slots, so TopK,
// ReportAbove and Items never look at the policy. Answers are identical
// under every policy; only the update-cost profile differs.
type MaintenancePolicy interface {
	// ID is the policy's stable identifier, persisted in snapshots.
	ID() string
	// sealed closes the interface: a policy carries no behavior of its
	// own (the overlay instantiates an internal maintainer for it), so
	// outside implementations would be meaningless.
	sealed()
}

type policyID string

func (p policyID) ID() string { return string(p) }
func (policyID) sealed()      {}

var (
	// PolicyLogarithmic is the classic Bentley–Saxe logarithmic method:
	// carry-style tail merges into geometric levels, tombstone deletes,
	// and a global rebuild once tombstones exceed DeadFrac of the baked-in
	// items. Amortized insert cost O(log(n/TailCap) · Build(n)/n) I/Os.
	// This is the default and the only policy that existed before the
	// policy seam; its behavior (answers, I/O counts, trace spans) is
	// pinned byte-for-byte by the churn and metamorphic suites.
	PolicyLogarithmic MaintenancePolicy = policyID("logarithmic")
	// PolicyBuffered replaces the carry merge with buffer-tree-style
	// update batching (Brodal arXiv:1509.08240; Tao arXiv:1208.4516):
	// each tail flush becomes one run — a buffered per-level update
	// batch — and runs accumulate at a tier until tierFan of them are
	// merged into a single run one tier up, dropping tombstones as they
	// go. A run whose tombstones exceed DeadFrac is compacted alone
	// (a weight-balanced partial rebuild proportional to the run, not
	// the structure), and a fully dead run is discarded in place, so the
	// global rebuild disappears entirely. Each item is rebuilt once per
	// tier boundary it crosses — O(log₄(n/TailCap)) times — halving the
	// logarithmic method's rebuild amplification.
	PolicyBuffered MaintenancePolicy = policyID("buffered")
)

// PolicyByID resolves a persisted policy identifier, e.g. from a
// snapshot's policy section.
func PolicyByID(id string) (MaintenancePolicy, bool) {
	switch id {
	case PolicyLogarithmic.ID():
		return PolicyLogarithmic, true
	case PolicyBuffered.ID():
		return PolicyBuffered, true
	}
	return nil, false
}

// tierFan is PolicyBuffered's merge fan-in: tierFan runs buffered at one
// tier merge into a single run one tier up. 4 balances rebuild
// amplification (each item is built once per log₄ tier) against the run
// count a query touches (< tierFan per tier).
const tierFan = 4

// maintainer is a MaintenancePolicy instantiated for one overlay — the
// strategy half of the update path. The overlay owns the mechanisms
// (buildAt, discard, tracker charges, the ladder itself); the maintainer
// owns the decisions: where batches are placed, when merges run, and how
// tombstones are compacted.
type maintainer[Q, V any] interface {
	policy() MaintenancePolicy
	// initial places New's starting batch (non-empty) like a static
	// build: no flush accounting, no trace span.
	initial(batch []core.Item[V]) error
	// afterInsert runs after each tail append and flushes when due.
	afterInsert()
	// bulkLoad merges a validated batch (the drained tail plus the new
	// items) into the ladder in one maintenance pass.
	bulkLoad(batch []core.Item[V]) error
	// afterDelete runs after weight deletion tombstoned slot j. A fully
	// dead level was already discarded (discarded=true) before the call.
	afterDelete(j int, discarded bool)
	// afterDeleteBatch runs once after a DeleteBatch marked all its
	// tombstones, replacing the per-delete afterDelete calls.
	afterDeleteBatch()
	// onDiscard is invoked by Overlay.discard so placement bookkeeping
	// can forget the slot.
	onDiscard(j int)
	// addStats fills the policy-specific Stats fields.
	addStats(st *Stats)
	// exportTiers snapshots placement bookkeeping for State;
	// checkTiers validates a decoded State's records against this
	// policy, and adoptTiers installs them after the levels are rebuilt.
	exportTiers() []TierRef
	checkTiers(levels []LevelState[V], tiers []TierRef) error
	adoptTiers(tiers []TierRef)
}

// newMaintainer instantiates o.opts.Policy for o.
func newMaintainer[Q, V any](o *Overlay[Q, V]) maintainer[Q, V] {
	if o.opts.Policy == PolicyBuffered {
		return &bufMaintainer[Q, V]{o: o, tier: make(map[int]int)}
	}
	return &logMaintainer[Q, V]{o: o}
}

// logMaintainer is PolicyLogarithmic: the pre-seam overlay behavior,
// moved here verbatim.
type logMaintainer[Q, V any] struct{ o *Overlay[Q, V] }

func (m *logMaintainer[Q, V]) policy() MaintenancePolicy { return PolicyLogarithmic }

func (m *logMaintainer[Q, V]) initial(batch []core.Item[V]) error {
	o := m.o
	j := 0
	for len(batch) > o.capOf(j) {
		j++
	}
	return o.buildAt(j, batch)
}

func (m *logMaintainer[Q, V]) afterInsert() {
	if len(m.o.tail) >= m.o.opts.TailCap {
		m.merge(m.o.drainTail())
	}
}

// merge folds a batch into the ladder carry-style: the batch absorbs
// every occupied level it passes and settles in the first empty slot
// that can hold it.
func (m *logMaintainer[Q, V]) merge(batch []core.Item[V]) {
	o := m.o
	o.stats.Flushes++
	sp := o.opts.Tracker.BeginSpan(nil)
	defer func() { o.opts.Tracker.EndSpan(nil, sp, PhaseFlush, -1, int64(len(batch))) }()

	j := 0
	for {
		if j == len(o.levels) {
			o.levels = append(o.levels, nil)
		}
		if lvl := o.levels[j]; lvl != nil {
			batch = appendLive(batch, lvl)
			o.discard(j)
			j++
			continue
		}
		if len(batch) <= o.capOf(j) {
			break
		}
		j++
	}
	if err := o.buildAt(j, batch); err != nil {
		// Builders fail only on invalid item sets, and every item here was
		// validated on entry; a failure is an invariant violation.
		panic(fmt.Sprintf("dynamic: merge rebuild failed: %v", err))
	}
}

func (m *logMaintainer[Q, V]) bulkLoad(batch []core.Item[V]) error {
	// One carry merge of the whole batch: m items cost one flush instead
	// of m/TailCap of them.
	m.merge(batch)
	return nil
}

func (m *logMaintainer[Q, V]) afterDelete(_ int, discarded bool) {
	if !discarded {
		m.checkRebuild()
	}
}

func (m *logMaintainer[Q, V]) afterDeleteBatch() { m.checkRebuild() }

func (m *logMaintainer[Q, V]) checkRebuild() {
	o := m.o
	if float64(o.deadTotal) >= o.opts.DeadFrac*float64(o.builtTotal) && o.builtTotal > o.opts.TailCap {
		m.rebuildAll()
	}
}

// rebuildAll compacts every live item (levels and tail) into one fresh
// substructure, clearing all tombstones.
func (m *logMaintainer[Q, V]) rebuildAll() {
	o := m.o
	o.stats.Rebuilds++
	sp := o.opts.Tracker.BeginSpan(nil)
	defer func() { o.opts.Tracker.EndSpan(nil, sp, PhaseRebuild, -1, int64(o.N())) }()
	batch := make([]core.Item[V], 0, o.N())
	for j, lvl := range o.levels {
		if lvl != nil {
			batch = appendLive(batch, lvl)
			o.discard(j)
		}
	}
	batch = append(batch, o.tail...)
	o.tail = o.tail[:0]
	clear(o.tailPos)
	o.levels = o.levels[:0]
	if len(batch) == 0 {
		return
	}
	j := 0
	for len(batch) > o.capOf(j) {
		j++
	}
	if err := o.buildAt(j, batch); err != nil {
		panic(fmt.Sprintf("dynamic: global rebuild failed: %v", err))
	}
}

func (m *logMaintainer[Q, V]) onDiscard(int)          {}
func (m *logMaintainer[Q, V]) addStats(*Stats)        {}
func (m *logMaintainer[Q, V]) exportTiers() []TierRef { return nil }

func (m *logMaintainer[Q, V]) checkTiers(_ []LevelState[V], tiers []TierRef) error {
	if len(tiers) > 0 {
		return fmt.Errorf("dynamic: restore: %d tier records under the logarithmic policy (which keeps none)", len(tiers))
	}
	return nil
}

func (m *logMaintainer[Q, V]) adoptTiers([]TierRef) {}

// bufMaintainer is PolicyBuffered. Every ladder slot it occupies holds
// one run: a buffered update batch pending its tier merge. tier maps the
// slot to the run's tier; a run at tier t holds at most
// TailCap·tierFan^(t+1) items, and tierFan runs at tier t merge into one
// run at tier t+1.
type bufMaintainer[Q, V any] struct {
	o    *Overlay[Q, V]
	tier map[int]int // occupied slot -> tier of the run it holds
}

func (m *bufMaintainer[Q, V]) policy() MaintenancePolicy { return PolicyBuffered }

// tierCap is the item capacity of a run at tier t, TailCap·tierFan^(t+1).
func (m *bufMaintainer[Q, V]) tierCap(t int) int {
	c := m.o.opts.TailCap
	for i := 0; i <= t; i++ {
		if c >= maxCap/tierFan {
			return maxCap
		}
		c *= tierFan
	}
	return c
}

// tierOf is the smallest tier whose capacity holds n items.
func (m *bufMaintainer[Q, V]) tierOf(n int) int {
	t := 0
	for n > m.tierCap(t) {
		t++
	}
	return t
}

// place builds batch as one run at tier t, in the smallest free slot
// whose capacity fits — no carry absorption, so nothing already built is
// touched.
func (m *bufMaintainer[Q, V]) place(batch []core.Item[V], t int) error {
	if len(batch) == 0 {
		return nil
	}
	o := m.o
	j := 0
	for {
		if j == len(o.levels) {
			o.levels = append(o.levels, nil)
		}
		if o.levels[j] == nil && len(batch) <= o.capOf(j) {
			break
		}
		j++
	}
	if err := o.buildAt(j, batch); err != nil {
		return err
	}
	m.tier[j] = t
	return nil
}

func (m *bufMaintainer[Q, V]) initial(batch []core.Item[V]) error {
	return m.place(batch, m.tierOf(len(batch)))
}

func (m *bufMaintainer[Q, V]) afterInsert() {
	o := m.o
	if len(o.tail) < o.opts.TailCap {
		return
	}
	batch := o.drainTail()
	o.stats.Flushes++
	sp := o.opts.Tracker.BeginSpan(nil)
	if err := m.place(batch, 0); err != nil {
		panic(fmt.Sprintf("dynamic: buffered flush failed: %v", err))
	}
	o.opts.Tracker.EndSpan(nil, sp, PhaseFlush, -1, int64(len(batch)))
	m.cascade(0)
}

func (m *bufMaintainer[Q, V]) bulkLoad(batch []core.Item[V]) error {
	o := m.o
	o.stats.Flushes++
	t := m.tierOf(len(batch))
	sp := o.opts.Tracker.BeginSpan(nil)
	err := m.place(batch, t)
	o.opts.Tracker.EndSpan(nil, sp, PhaseFlush, -1, int64(len(batch)))
	if err != nil {
		return err
	}
	m.cascade(t)
	return nil
}

// cascade merges upward from tier t: whenever a tier holds tierFan runs,
// their live items become one run a tier up — tombstones are dropped in
// passing, so merges double as compaction — and the check moves to that
// tier.
func (m *bufMaintainer[Q, V]) cascade(t int) {
	o := m.o
	for {
		slots := m.slotsAt(t)
		if len(slots) < tierFan {
			return
		}
		size := 0
		for _, j := range slots {
			size += o.levels[j].live()
		}
		merged := make([]core.Item[V], 0, size)
		for _, j := range slots {
			merged = appendLive(merged, o.levels[j])
		}
		sp := o.opts.Tracker.BeginSpan(nil)
		for _, j := range slots {
			o.discard(j)
		}
		if err := m.place(merged, t+1); err != nil {
			panic(fmt.Sprintf("dynamic: tier merge failed: %v", err))
		}
		o.stats.PartialRebuilds++
		o.opts.Tracker.EndSpan(nil, sp, PhasePartial, t, int64(len(merged)))
		t++
	}
}

// slotsAt lists the slots holding tier-t runs in ascending order, so
// merge input order — and therefore the rebuilt structure — is
// deterministic.
func (m *bufMaintainer[Q, V]) slotsAt(t int) []int {
	var slots []int
	for j, tt := range m.tier {
		if tt == t {
			slots = append(slots, j)
		}
	}
	sort.Ints(slots)
	return slots
}

func (m *bufMaintainer[Q, V]) afterDelete(j int, discarded bool) {
	if !discarded && m.deadHeavy(j) {
		m.compact(j)
	}
}

func (m *bufMaintainer[Q, V]) afterDeleteBatch() {
	for {
		j := -1
		for s := range m.tier {
			if m.deadHeavy(s) && (j < 0 || s < j) {
				j = s
			}
		}
		if j < 0 {
			return
		}
		m.compact(j)
	}
}

// deadHeavy reports whether run j's own tombstones crossed DeadFrac.
// Runs at or below a single tail flush are exempt: they are cheap to
// merge anyway, and compacting them would thrash.
func (m *bufMaintainer[Q, V]) deadHeavy(j int) bool {
	o := m.o
	lvl := o.levels[j]
	return lvl != nil && len(lvl.items) > o.opts.TailCap &&
		float64(len(lvl.dead)) >= o.opts.DeadFrac*float64(len(lvl.items))
}

// compact is the weight-balanced partial rebuild: run j is rebuilt over
// its live items alone, staying at its tier. Cost is proportional to the
// run — never to the whole structure — which is what removes the global
// rebuild from this policy.
func (m *bufMaintainer[Q, V]) compact(j int) {
	o := m.o
	lvl := o.levels[j]
	t := m.tier[j]
	live := appendLive(make([]core.Item[V], 0, lvl.live()), lvl)
	sp := o.opts.Tracker.BeginSpan(nil)
	o.discard(j)
	if err := m.place(live, t); err != nil {
		panic(fmt.Sprintf("dynamic: partial rebuild failed: %v", err))
	}
	o.stats.PartialRebuilds++
	o.opts.Tracker.EndSpan(nil, sp, PhasePartial, j, int64(len(live)))
}

func (m *bufMaintainer[Q, V]) onDiscard(j int) { delete(m.tier, j) }

func (m *bufMaintainer[Q, V]) addStats(st *Stats) {
	byTier := make(map[int][]int)
	for j, t := range m.tier {
		byTier[t] = append(byTier[t], j)
	}
	for _, slots := range byTier {
		if len(slots) < 2 {
			continue
		}
		sort.Ints(slots)
		// The highest slot holds the tier's settled run; every other run
		// is an update batch buffered until the tier's next merge.
		for _, j := range slots[:len(slots)-1] {
			st.BufferedRuns++
			st.BufferedItems += len(m.o.levels[j].items)
		}
	}
}

func (m *bufMaintainer[Q, V]) exportTiers() []TierRef {
	refs := make([]TierRef, 0, len(m.tier))
	for j, t := range m.tier {
		refs = append(refs, TierRef{Slot: j, Tier: t})
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].Slot < refs[b].Slot })
	return refs
}

func (m *bufMaintainer[Q, V]) checkTiers(levels []LevelState[V], tiers []TierRef) error {
	bySlot := make(map[int]int, len(tiers))
	perTier := make(map[int]int)
	for _, ref := range tiers {
		if ref.Tier < 0 || ref.Tier > 60 {
			return fmt.Errorf("dynamic: restore: tier %d out of range for slot %d", ref.Tier, ref.Slot)
		}
		if _, dup := bySlot[ref.Slot]; dup {
			return fmt.Errorf("dynamic: restore: slot %d has two tier records", ref.Slot)
		}
		bySlot[ref.Slot] = ref.Tier
		perTier[ref.Tier]++
		if perTier[ref.Tier] >= tierFan {
			return fmt.Errorf("dynamic: restore: tier %d holds %d runs, at-rest maximum is %d", ref.Tier, perTier[ref.Tier], tierFan-1)
		}
	}
	seen := 0
	for _, ls := range levels {
		t, ok := bySlot[ls.Slot]
		if !ok {
			return fmt.Errorf("dynamic: restore: slot %d has no tier record under the buffered policy", ls.Slot)
		}
		seen++
		if cap := m.tierCap(t); len(ls.Items) > cap {
			return fmt.Errorf("dynamic: restore: slot %d holds %d items, tier %d capacity is %d", ls.Slot, len(ls.Items), t, cap)
		}
	}
	if seen != len(bySlot) {
		return fmt.Errorf("dynamic: restore: %d tier records do not match %d occupied slots", len(bySlot), seen)
	}
	return nil
}

func (m *bufMaintainer[Q, V]) adoptTiers(tiers []TierRef) {
	for _, ref := range tiers {
		m.tier[ref.Slot] = ref.Tier
	}
}
