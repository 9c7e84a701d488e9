package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"topk/internal/em"
	"topk/internal/wrand"
)

// This file implements the Theorem 2 reduction (Section 4): combining a
// prioritized structure and a max structure into a top-k structure with no
// asymptotic performance degradation in expectation:
//
//	S_top(n) = O(S_pri(n) + S_max(6n / (B·Q_pri(n))))
//	Q_top(n) = O(Q_pri(n) + Q_max(n))  + O(k/B) reporting
//	U_top(n) = O(U_pri(n) + U_max(n))  expected (amortized if inputs are)
//
// Construction: fix σ = 1/20 and K_i = B·Q_max(n)·(1+σ)^(i-1) for
// i = 1..h where h is the largest i with K_i ≤ n/4. Keep a prioritized
// structure on D and, for each i, a max structure on an independent
// (1/K_i)-sample R_i of D.
//
// A top-k query walks the ladder upward in rounds (Lemma 3 makes each
// round succeed with probability ≥ 0.09): probe the max structure on R_j
// for the heaviest sampled element e in q(R_j), then run a cost-monitored
// prioritized query with τ = w(e). If the harvest S is complete and
// |S| > K_j, the answer is the k-selection of S; otherwise the round
// failed and the next round runs with K_{j+1} = (1+σ)K_j. Since
// (1+σ)·0.91 < 1, the expected cost telescopes to
// O(Q_pri + Q_max + k/B).

// DefaultSigma is the ladder growth rate σ = 1/20 fixed in Section 4.
const DefaultSigma = 1.0 / 20

// ExpectedOptions configures the Theorem 2 reduction.
type ExpectedOptions struct {
	// B is the block size in the K_i formula. Default 64.
	B int
	// QMax estimates Q_max(n) in I/Os for the plugged-in max structure.
	// Default: log_B n.
	QMax func(n int) float64
	// Sigma is the ladder growth rate; the analysis requires
	// (1+σ)·0.91 < 1, i.e. σ < 0.0989. Default 1/20.
	Sigma float64
	// Seed drives sampling; same seed ⇒ same structure.
	Seed uint64
	// Tracker, when non-nil, is charged the reduction's own scan and
	// k-selection costs.
	Tracker *em.Tracker
	// RebuildFactor triggers a full rebuild when the live size drifts by
	// this factor from the size at (re)build time, keeping the ladder
	// parameters calibrated. Default 2 (halve/double).
	RebuildFactor float64
}

func (o *ExpectedOptions) fill() {
	if o.B <= 1 {
		o.B = 64
	}
	if o.QMax == nil {
		b := o.B
		o.QMax = func(n int) float64 { return LogB(n, b) }
	}
	if o.Sigma <= 0 {
		o.Sigma = DefaultSigma
	}
	if o.RebuildFactor <= 1 {
		o.RebuildFactor = 2
	}
}

// ExpectedStats exposes instrumentation of the Theorem 2 structure.
type ExpectedStats struct {
	LadderLevels int   // h
	SampledItems int   // total items across all R_i (space overhead)
	Queries      int64 // top-k queries answered
	Rounds       int64 // total rounds executed across queries
	NaiveScans   int64 // full-D scans (k > K_h or ladder exhausted)
	Inserts      int64
	Deletes      int64
	Rebuilds     int64
	// RoundHist[r] counts queries that finished after exactly r+1 rounds
	// (capped at the last bucket); experiment E16 reads this.
	RoundHist [16]int64
}

// Expected is the Theorem 2 top-k structure. Built with
// NewExpected it is static; built with NewDynamicExpected it additionally
// supports Insert and DeleteWeight.
type Expected[Q, V any] struct {
	opts  ExpectedOptions
	match MatchFunc[Q, V]

	// factories retained for rebuilds (dynamic mode only).
	newPri DynamicPrioritizedFactory[Q, V]
	newMax DynamicMaxFactory[Q, V]

	pri    Prioritized[Q, V]
	priDyn DynamicPrioritized[Q, V] // nil in static mode

	levels []expLevel[Q, V]

	items    []Item[V]       // live copy of D (naive-scan path, rebuilds)
	posByW   map[float64]int // weight -> index in items
	nAtBuild int

	rng *wrand.RNG

	// stats holds the build/update-time fields of ExpectedStats; they are
	// only touched under the caller's exclusive-update contract. The
	// query-path counters live in qstats as atomics so that concurrent
	// read-only queries stay data-race-free.
	stats  ExpectedStats
	qstats expQueryCounters
}

// expQueryCounters are the query-path instrumentation counters, atomic
// because any number of TopK calls may run concurrently.
type expQueryCounters struct {
	queries    atomic.Int64
	rounds     atomic.Int64
	naiveScans atomic.Int64
	roundHist  [16]atomic.Int64
}

type expLevel[Q, V any] struct {
	k      float64 // K_i
	max    Max[Q, V]
	maxDyn DynamicMax[Q, V] // nil in static mode
	// members tracks sampled weights for delete bookkeeping (the paper's
	// O(1)-expected-words hashing record, §4 "Update").
	members map[float64]struct{}
}

// NewExpected builds the static Theorem 2 structure.
func NewExpected[Q, V any](
	items []Item[V],
	match MatchFunc[Q, V],
	newPri PrioritizedFactory[Q, V],
	newMax MaxFactory[Q, V],
	opts ExpectedOptions,
) (*Expected[Q, V], error) {
	opts.fill()
	e := &Expected[Q, V]{opts: opts, match: match, rng: wrand.New(opts.Seed ^ 0x7468_6d32)}
	if err := e.init(items); err != nil {
		return nil, err
	}
	e.build(func(d []Item[V]) Prioritized[Q, V] { return newPri(d) },
		func(s []Item[V]) (Max[Q, V], DynamicMax[Q, V]) { return newMax(s), nil })
	return e, nil
}

// NewDynamicExpected builds the updatable Theorem 2 structure from dynamic
// building blocks.
func NewDynamicExpected[Q, V any](
	items []Item[V],
	match MatchFunc[Q, V],
	newPri DynamicPrioritizedFactory[Q, V],
	newMax DynamicMaxFactory[Q, V],
	opts ExpectedOptions,
) (*Expected[Q, V], error) {
	opts.fill()
	e := &Expected[Q, V]{
		opts: opts, match: match,
		newPri: newPri, newMax: newMax,
		rng: wrand.New(opts.Seed ^ 0x7468_6d32),
	}
	if err := e.init(items); err != nil {
		return nil, err
	}
	e.rebuild()
	return e, nil
}

func (e *Expected[Q, V]) init(items []Item[V]) error {
	if err := ValidateWeights(items); err != nil {
		return err
	}
	e.items = make([]Item[V], len(items))
	copy(e.items, items)
	e.posByW = make(map[float64]int, len(items))
	for i, it := range e.items {
		e.posByW[it.Weight] = i
	}
	return nil
}

// build (re)constructs the prioritized structure and the sample ladder
// from e.items using the supplied constructors.
func (e *Expected[Q, V]) build(
	mkPri func([]Item[V]) Prioritized[Q, V],
	mkMax func([]Item[V]) (Max[Q, V], DynamicMax[Q, V]),
) {
	n := len(e.items)
	e.nAtBuild = n
	base := make([]Item[V], n)
	copy(base, e.items)
	e.pri = mkPri(base)

	e.levels = nil
	e.stats.SampledItems = 0
	kMin := e.kMin(n)
	for k := kMin; k <= float64(n)/4; k *= 1 + e.opts.Sigma {
		idx := e.rng.SampleIndices(n, 1/k)
		sample := make([]Item[V], len(idx))
		members := make(map[float64]struct{}, len(idx))
		for i, j := range idx {
			sample[i] = e.items[j]
			members[sample[i].Weight] = struct{}{}
		}
		mx, mxDyn := mkMax(sample)
		e.levels = append(e.levels, expLevel[Q, V]{k: k, max: mx, maxDyn: mxDyn, members: members})
		e.stats.SampledItems += len(sample)
	}
	e.stats.LadderLevels = len(e.levels)
}

func (e *Expected[Q, V]) rebuild() {
	e.stats.Rebuilds++
	sp := e.opts.Tracker.BeginSpan(nil)
	defer e.opts.Tracker.EndSpan(nil, sp, PhaseT2Rebuild, -1, int64(len(e.items)))
	e.build(
		func(d []Item[V]) Prioritized[Q, V] {
			dp := e.newPri(d)
			e.priDyn = dp
			return dp
		},
		func(s []Item[V]) (Max[Q, V], DynamicMax[Q, V]) {
			dm := e.newMax(s)
			return dm, dm
		},
	)
}

// kMin is B·Q_max(n), the smallest ladder rung K_1 (§4).
func (e *Expected[Q, V]) kMin(n int) float64 {
	v := float64(e.opts.B) * math.Max(e.opts.QMax(n), 1)
	if v < 1 {
		v = 1
	}
	return v
}

// N returns the number of live items.
func (e *Expected[Q, V]) N() int { return len(e.items) }

// Stats returns a snapshot of the instrumentation counters.
func (e *Expected[Q, V]) Stats() ExpectedStats {
	st := e.stats
	st.Queries = e.qstats.queries.Load()
	st.Rounds = e.qstats.rounds.Load()
	st.NaiveScans = e.qstats.naiveScans.Load()
	for i := range st.RoundHist {
		st.RoundHist[i] = e.qstats.roundHist[i].Load()
	}
	return st
}

// Prioritized exposes the reduction's internal prioritized structure on D
// (kept up to date by the dynamic path), so callers can answer prioritized
// queries without building a second copy of the black box.
func (e *Expected[Q, V]) Prioritized() Prioritized[Q, V] { return e.pri }

// Items returns a snapshot of the live item set in unspecified order.
func (e *Expected[Q, V]) Items() []Item[V] {
	out := make([]Item[V], len(e.items))
	copy(out, e.items)
	return out
}

// TopK answers a top-k query by the round algorithm of Section 4. The
// result is weight-descending with min(k, |q(D)|) items. When the tracker
// has a trace sink, each round, probe, max lookup and harvest is emitted
// as a span carrying its I/O delta (phases.go). Every charge and span goes
// to v (nil: the shared path).
func (e *Expected[Q, V]) TopK(v *em.QueryView, q Q, k int) []Item[V] {
	e.qstats.queries.Add(1)
	n := len(e.items)
	if k <= 0 || n == 0 {
		return nil
	}
	tr := e.opts.Tracker

	// Queries with k < B·Q_max(n) are treated as top-(B·Q_max(n)) and
	// finished with k-selection.
	kq := k
	if min := int(math.Ceil(e.kMin(n))); kq < min {
		kq = min
	}

	// k beyond the ladder top (or no ladder at all): scan D naively in
	// O(n/B) = O(k/B).
	if len(e.levels) == 0 || float64(kq) > e.levels[len(e.levels)-1].k {
		e.qstats.naiveScans.Add(1)
		sp := tr.BeginSpan(v)
		res := e.scanTopK(v, q, k)
		tr.EndSpan(v, sp, PhaseT2Scan, -1, int64(n))
		return res
	}

	// Smallest rung i with K_i ≥ kq.
	lo := 0
	for lo < len(e.levels) && e.levels[lo].k < float64(kq) {
		lo++
	}

	rounds := 0
	for j := lo; j < len(e.levels); j++ {
		rounds++
		lvl := &e.levels[j]
		cap4K := int(4 * lvl.k)
		rsp := tr.BeginSpan(v)

		// Step 1: if |q(D)| ≤ 4K_j the cost-monitored query solves it.
		sp := tr.BeginSpan(v)
		top, cnt, complete := CollectTop(v, e.pri, q, math.Inf(-1), cap4K, k)
		tr.EndSpan(v, sp, probePhase(complete), j, int64(cnt))
		if complete {
			e.chargeScan(v, cnt)
			tr.EndSpan(v, rsp, PhaseT2RoundDirect, j, int64(rounds))
			e.finishRounds(rounds)
			return top
		}

		// Step 2: heaviest sampled element in q(R_j).
		tau := math.Inf(-1)
		sp = tr.BeginSpan(v)
		if it, ok := lvl.max.MaxItem(v, q); ok {
			tau = it.Weight
		}
		tr.EndSpan(v, sp, PhaseT2Max, j, 0)
		if math.IsInf(tau, -1) {
			// Empty q(R_j): the τ = −∞ probe would repeat step 1's
			// capped query and fail; skip straight to the next round.
			tr.EndSpan(v, rsp, PhaseT2RoundEmpty, j, int64(rounds))
			continue
		}

		// Step 3: cost-monitored harvest above τ.
		sp = tr.BeginSpan(v)
		top, cnt, complete = CollectTop(v, e.pri, q, tau, cap4K, k)
		tr.EndSpan(v, sp, harvestPhase(complete), j, int64(cnt))

		// Step 4: failure tests on |S| = cnt.
		if !complete || cnt <= int(lvl.k) {
			tr.EndSpan(v, rsp, PhaseT2RoundFail, j, int64(rounds))
			continue
		}

		// Step 5: success — k-selection over S, which CollectTop did.
		e.chargeScan(v, cnt)
		tr.EndSpan(v, rsp, PhaseT2RoundOK, j, int64(rounds))
		e.finishRounds(rounds)
		return top
	}

	// Step 6(b): ladder exhausted; read the whole D.
	e.qstats.naiveScans.Add(1)
	e.finishRounds(rounds)
	sp := tr.BeginSpan(v)
	res := e.scanTopK(v, q, k)
	tr.EndSpan(v, sp, PhaseT2Scan, -1, int64(n))
	return res
}

// probePhase / harvestPhase pick the outcome variant of a cost-monitored
// subquery's phase: complete means the prioritized query terminated by
// itself; incomplete means the cost monitor aborted it.
func probePhase(complete bool) string {
	if complete {
		return PhaseT2ProbeOK
	}
	return PhaseT2ProbeAbort
}

func harvestPhase(complete bool) string {
	if complete {
		return PhaseT2HarvestOK
	}
	return PhaseT2HarvestAbort
}

func (e *Expected[Q, V]) finishRounds(r int) {
	e.qstats.rounds.Add(int64(r))
	idx := r - 1
	if idx >= len(e.qstats.roundHist) {
		idx = len(e.qstats.roundHist) - 1
	}
	e.qstats.roundHist[idx].Add(1)
}

func (e *Expected[Q, V]) scanTopK(v *em.QueryView, q Q, k int) []Item[V] {
	e.chargeScan(v, len(e.items))
	return scanTop(e.items, e.match, q, k)
}

func (e *Expected[Q, V]) chargeScan(v *em.QueryView, nItems int) {
	if e.opts.Tracker != nil {
		e.opts.Tracker.ScanCost(v, nItems)
	}
}

// Insert adds an item (dynamic mode only): one insertion into the
// prioritized structure and, in expectation, O(1) insertions into max
// structures — each rung samples the new element with probability 1/K_i,
// and Σ 1/K_i = O(1/(B·Q_max)) (§4, "Update").
func (e *Expected[Q, V]) Insert(it Item[V]) error {
	if e.priDyn == nil {
		panic("core: Insert on a static Expected structure; build with NewDynamicExpected")
	}
	if _, dup := e.posByW[it.Weight]; dup {
		return fmt.Errorf("core: duplicate weight %v", it.Weight)
	}
	e.stats.Inserts++
	e.posByW[it.Weight] = len(e.items)
	e.items = append(e.items, it)
	e.priDyn.Insert(it)
	for i := range e.levels {
		lvl := &e.levels[i]
		if e.rng.Bernoulli(1 / lvl.k) {
			lvl.maxDyn.Insert(it)
			lvl.members[it.Weight] = struct{}{}
		}
	}
	e.maybeRebuild()
	return nil
}

// DeleteWeight removes the item with the given weight (dynamic mode only)
// and reports whether it was present.
func (e *Expected[Q, V]) DeleteWeight(w float64) bool {
	if e.priDyn == nil {
		panic("core: DeleteWeight on a static Expected structure; build with NewDynamicExpected")
	}
	pos, ok := e.posByW[w]
	if !ok {
		return false
	}
	e.stats.Deletes++
	last := len(e.items) - 1
	moved := e.items[last]
	e.items[pos] = moved
	e.items = e.items[:last]
	e.posByW[moved.Weight] = pos
	delete(e.posByW, w)

	e.priDyn.DeleteWeight(w)
	for i := range e.levels {
		lvl := &e.levels[i]
		if _, in := lvl.members[w]; in {
			lvl.maxDyn.DeleteWeight(w)
			delete(lvl.members, w)
		}
	}
	e.maybeRebuild()
	return true
}

func (e *Expected[Q, V]) maybeRebuild() {
	n, n0 := float64(len(e.items)), float64(e.nAtBuild)
	if n0 < 16 {
		n0 = 16 // avoid rebuild thrash on tiny structures
	}
	if n > n0*e.opts.RebuildFactor || n < n0/e.opts.RebuildFactor {
		e.rebuild()
	}
}
