package core

import (
	"math"
	"sync/atomic"

	"topk/internal/em"
	"topk/internal/wrand"
)

// This file implements the Theorem 1 reduction (Section 3.2): from any
// prioritized-reporting structure on a λ-polynomially-bounded problem to a
// static top-k structure with
//
//	S_top(n) = O(S_pri(n))
//	Q_top(n) = O(Q_pri(n) · log n / (log B + log(Q_pri(n)/log_B n)))
//
// The construction defines (Eqs. 8–9)
//
//	g = Q_pri(n) / log_B n        (≥ 1 by assumption)
//	f = 12 λ B Q_pri(n)
//
// and has two components:
//
//   - a "top-f chain": nested core-sets R_0 = D ⊇ R_1 ⊇ R_2 ⊇ … (each a
//     Lemma 2 core-set of the previous with K = f), each carrying a
//     prioritized structure, answering all queries with k ≤ f;
//   - a "large-k ladder": core-sets R[i] of D with K = 2^(i-1) f for
//     i = 1..h, each carrying its own top-f chain, answering k > f.
//
// Lemma 2 is existential (each sample is good with constant probability),
// so the query algorithms here are made *self-checking*: whenever a sample
// fails to deliver the rank guarantee the algorithm detects it (too few
// elements above the pivot weight) and falls back to an exhaustive
// prioritized enumeration, preserving correctness unconditionally and the
// cost bound with the lemma's probability. Fallbacks are counted in Stats.

// WorstCaseOptions configures the Theorem 1 reduction.
type WorstCaseOptions struct {
	// B is the block size used in the f and g formulas. The paper assumes
	// B ≥ 64 in EM; in RAM it is a constant. Default 64.
	B int
	// Lambda is the polynomial-boundedness exponent λ of the underlying
	// problem (|{q(D)}| ≤ n^λ). Default 2, which covers every problem in
	// the paper's Section 5 (intervals and enclosure have λ ≤ 2,
	// halfplanes have λ = 2, 3D dominance λ = 3 — pass it explicitly).
	Lambda float64
	// QPri estimates Q_pri(n), the query-overhead term of the plugged-in
	// prioritized structure, in I/Os. Theorem 1 requires
	// Q_pri(n) ≥ log_B n; the value is clamped up to that.
	// Default: log_B n.
	QPri func(n int) float64
	// FScale multiplies the top-f threshold f = 12λB·Q_pri(n). The
	// paper's constant is chosen for the asymptotic analysis and makes f
	// comparable to n at laptop scales; smaller values let experiments
	// observe the asymptotic regime at feasible n. Correctness is
	// unaffected — the query algorithms self-check every sample and
	// repair failures — only the failure probability grows. Default 1.
	FScale float64
	// Seed drives the core-set sampling. Same seed ⇒ same structure.
	Seed uint64
	// Tracker, when non-nil, is charged for the reduction's own scan and
	// k-selection I/Os (the plugged-in structures charge theirs
	// separately, typically to the same tracker).
	Tracker *em.Tracker
}

func (o *WorstCaseOptions) fill() {
	if o.B <= 1 {
		o.B = 64
	}
	if o.Lambda <= 0 {
		o.Lambda = 2
	}
	if o.QPri == nil {
		b := o.B
		o.QPri = func(n int) float64 { return LogB(n, b) }
	}
	if o.FScale <= 0 {
		o.FScale = 1
	}
}

// WorstCaseStats exposes instrumentation of the Theorem 1 structure.
type WorstCaseStats struct {
	F            int   // the top-f threshold 12λB·Q_pri(n)
	ChainLevels  int   // number of nested core-sets on D (h in §3.2)
	LadderLevels int   // number of large-k core-sets R[i]
	CoreSetItems int   // total items across all core-sets (space overhead)
	Queries      int64 // top-k queries answered
	Fallbacks    int64 // self-check fallbacks taken (bad samples)
	ChainScans   int64 // bottom-level scans performed
}

// WorstCase is the Theorem 1 top-k structure. It is static: build once,
// query many times.
type WorstCase[Q, V any] struct {
	opts  WorstCaseOptions
	match MatchFunc[Q, V]
	f     int
	items []Item[V] // D, weight-descending
	chain *topfChain[Q, V]
	// ladder[i] is the top-f chain on the core-set R[i+1] with
	// K = 2^i · f (paper's i = index+1).
	ladder []*topfChain[Q, V]

	// stats holds the build-time fields of WorstCaseStats; the query-path
	// counters live in qstats as atomics so that concurrent read-only
	// queries stay data-race-free.
	stats  WorstCaseStats
	qstats wcQueryCounters
}

// wcQueryCounters are the query-path instrumentation counters, atomic
// because any number of TopK calls may run concurrently.
type wcQueryCounters struct {
	queries    atomic.Int64
	fallbacks  atomic.Int64
	chainScans atomic.Int64
}

// topfChain is the nested-core-set structure answering top-f queries
// (§3.2, "queries with k ≤ f").
type topfChain[Q, V any] struct {
	f      int
	lambda float64
	levels []chainLevel[Q, V]
	owner  *WorstCase[Q, V]
}

type chainLevel[Q, V any] struct {
	items []Item[V]
	pri   Prioritized[Q, V]
}

// NewWorstCase builds the Theorem 1 structure over items. newPri is
// invoked on D and on every core-set. match is used only for bottom-level
// scans. It returns an error if the items carry duplicate weights.
func NewWorstCase[Q, V any](
	items []Item[V],
	match MatchFunc[Q, V],
	newPri PrioritizedFactory[Q, V],
	opts WorstCaseOptions,
) (*WorstCase[Q, V], error) {
	opts.fill()
	if err := ValidateWeights(items); err != nil {
		return nil, err
	}
	n := len(items)
	d := make([]Item[V], n)
	copy(d, items)
	SortByWeightDesc(d)

	qpri := math.Max(opts.QPri(n), LogB(n, opts.B))
	f := int(math.Ceil(opts.FScale * 12 * opts.Lambda * float64(opts.B) * qpri))
	if f < 1 {
		f = 1
	}

	w := &WorstCase[Q, V]{opts: opts, match: match, f: f, items: d}
	g := wrand.New(opts.Seed ^ 0x7461_6f31) // independent stream per structure

	w.chain = buildChain(w, d, newPri, g.Split())
	w.stats.ChainLevels = len(w.chain.levels)

	// Large-k ladder: R[i] with K = 2^(i-1) f while 2^(i-1) f ≤ n.
	for k := float64(f); k <= float64(n); k *= 2 {
		r := CoreSet(g, d, CoreSetParams{N: n, K: k, Lambda: opts.Lambda})
		w.ladder = append(w.ladder, buildChain(w, r, newPri, g.Split()))
		w.stats.CoreSetItems += len(r)
	}
	w.stats.LadderLevels = len(w.ladder)
	w.stats.F = f
	for _, lvl := range w.chain.levels[1:] {
		w.stats.CoreSetItems += len(lvl.items)
	}
	return w, nil
}

// buildChain constructs the nested top-f chain over base: R_0 = base and
// R_{i+1} = CoreSet(R_i, K = f) until |R_i| ≤ 4f. The guard against
// non-shrinking samples keeps construction total even when the lemma's
// preconditions are violated by tiny inputs.
func buildChain[Q, V any](
	owner *WorstCase[Q, V],
	base []Item[V],
	newPri PrioritizedFactory[Q, V],
	g *wrand.RNG,
) *topfChain[Q, V] {
	c := &topfChain[Q, V]{f: owner.f, lambda: owner.opts.Lambda, owner: owner}
	cur := base
	for {
		c.levels = append(c.levels, chainLevel[Q, V]{items: cur, pri: newPri(cur)})
		if len(cur) <= 4*c.f {
			break
		}
		next := CoreSet(g, cur, CoreSetParams{N: len(cur), K: float64(c.f), Lambda: c.lambda})
		if len(next) >= len(cur) || len(next) == 0 {
			break // degenerate sample; the current level becomes the base case
		}
		cur = next
	}
	return c
}

// N returns the number of indexed items.
func (w *WorstCase[Q, V]) N() int { return len(w.items) }

// F returns the small/large-k threshold f = 12λB·Q_pri(n).
func (w *WorstCase[Q, V]) F() int { return w.f }

// Stats returns a snapshot of the instrumentation counters.
func (w *WorstCase[Q, V]) Stats() WorstCaseStats {
	st := w.stats
	st.Queries = w.qstats.queries.Load()
	st.Fallbacks = w.qstats.fallbacks.Load()
	st.ChainScans = w.qstats.chainScans.Load()
	return st
}

// Prioritized exposes the structure's prioritized black box on D (the
// chain's level 0), so callers can answer prioritized queries without
// building a second copy.
func (w *WorstCase[Q, V]) Prioritized() Prioritized[Q, V] { return w.chain.levels[0].pri }

// TopK answers a top-k query (§3.2). The result is weight-descending with
// min(k, |q(D)|) items. When the tracker has a trace sink, each chain
// level, probe, harvest and fallback is emitted as a span carrying its
// I/O delta (phases.go). Every charge and span goes to v (nil: the shared
// path).
func (w *WorstCase[Q, V]) TopK(v *em.QueryView, q Q, k int) []Item[V] {
	w.qstats.queries.Add(1)
	if k <= 0 || len(w.items) == 0 {
		return nil
	}
	n := len(w.items)

	// k ≥ n/2: scan the entire D in O(n/B) = O(k/B) I/Os.
	if k >= n/2 {
		return w.tracedScanTopK(v, q, k)
	}
	// k ≤ f: answer as a top-f query followed by k-selection, keeping
	// only the k best.
	if k <= w.f {
		return w.chain.query(v, q, 0, k)
	}
	return w.largeK(v, q, k)
}

// largeK answers queries with f < k < n/2 via the ladder (§3.2, "queries
// with k > f").
func (w *WorstCase[Q, V]) largeK(v *em.QueryView, q Q, k int) []Item[V] {
	n := len(w.items)
	priD := w.chain.levels[0].pri

	// Smallest i ≥ 1 with 2^(i-1) f ≥ k; then K = 2^(i-1) f ∈ [k, 2k).
	i := 0
	bigK := w.f
	for bigK < k && i+1 < len(w.ladder) {
		bigK *= 2
		i++
	}
	if bigK < k {
		// Ladder exhausted (can happen only for k close to n/2 with a
		// degenerate ladder); scanning is within the O(k/B) budget.
		return w.tracedScanTopK(v, q, k)
	}
	tr := w.opts.Tracker

	// If |q(D)| ≤ 4K, a cost-monitored prioritized query solves it.
	sp := tr.BeginSpan(v)
	top, cnt, complete := CollectTop(v, priD, q, math.Inf(-1), 4*bigK, k)
	tr.EndSpan(v, sp, t1ProbePhase(complete), -1, int64(cnt))
	if complete {
		w.chargeScan(v, cnt)
		return top
	}

	// |q(D)| > 4K: fetch the pivot from the core-set R[i] via its top-f
	// structure, then harvest from D above the pivot's weight. Only the
	// pivot is read, so the chain keeps its r best; a rank beyond f fails
	// the check below, as the full top-f answer would.
	r := pivotRank(n, w.opts.Lambda)
	sub := w.ladder[i].query(v, q, 0, min(r, w.f))
	if len(sub) < r {
		w.qstats.fallbacks.Add(1)
		return w.tracedExhaustive(v, priD, q, k, k)
	}
	pivot := sub[r-1].Weight
	sp = tr.BeginSpan(v)
	got, cnt := w.harvest(v, priD, q, pivot, k)
	tr.EndSpan(v, sp, PhaseT1Harvest, -1, int64(cnt))
	if cnt < k {
		// The pivot landed above rank k in q(D) (sample failure): the
		// harvested set may miss part of the answer.
		w.qstats.fallbacks.Add(1)
		return w.tracedExhaustive(v, priD, q, k, k)
	}
	return got
}

// tracedScanTopK / tracedExhaustive wrap the two repair/fallback paths in
// their trace spans (no-ops when tracing is off).
func (w *WorstCase[Q, V]) tracedScanTopK(v *em.QueryView, q Q, k int) []Item[V] {
	sp := w.opts.Tracker.BeginSpan(v)
	res := w.scanTopK(v, q, k)
	w.opts.Tracker.EndSpan(v, sp, PhaseT1Scan, -1, int64(len(w.items)))
	return res
}

// The exhaustive fallback drains the prioritized structure with τ = −∞:
// correct unconditionally, and run only on sample failures. Its span's
// Arg is k, the rank the failed step had to deliver; only the want ≤ k
// best are kept.
func (w *WorstCase[Q, V]) tracedExhaustive(v *em.QueryView, p Prioritized[Q, V], q Q, k, want int) []Item[V] {
	sp := w.opts.Tracker.BeginSpan(v)
	res, _ := w.harvest(v, p, q, math.Inf(-1), want)
	w.opts.Tracker.EndSpan(v, sp, PhaseT1Fallback, -1, int64(k))
	return res
}

func t1ProbePhase(complete bool) string {
	if complete {
		return PhaseT1ProbeOK
	}
	return PhaseT1ProbeAbort
}

// query answers a top-f query on the chain from level j (the inductive
// algorithm of §3.2) and returns the want ≤ f heaviest of its answer,
// weight-descending: min(want, |q(R_j)|) items. Every step tests the
// counts the full top-f query tests (items streamed against 4f, the
// harvest against f, the level below against the pivot rank r), so want
// changes only what is kept, never the path, the charges or the spans.
//
// It wraps the level's work in its PhaseT1Level trace span; the level's
// probe/harvest/fallback spans (and the recursive deeper levels) nest
// inside it, so a query's depth-0 spans partition its total cost.
func (c *topfChain[Q, V]) query(v *em.QueryView, q Q, j, want int) []Item[V] {
	w := c.owner
	sp := w.opts.Tracker.BeginSpan(v)
	res := c.queryLevel(v, q, j, want)
	w.opts.Tracker.EndSpan(v, sp, PhaseT1Level, j, int64(len(c.levels[j].items)))
	return res
}

func (c *topfChain[Q, V]) queryLevel(v *em.QueryView, q Q, j, want int) []Item[V] {
	w := c.owner
	tr := w.opts.Tracker
	lvl := c.levels[j]
	// Base case: scan the bottom core-set.
	if j == len(c.levels)-1 {
		w.qstats.chainScans.Add(1)
		w.chargeScan(v, len(lvl.items))
		return scanTop(lvl.items, w.match, q, want)
	}

	// |q(R_j)| ≤ 4f ⇒ the cost-monitored query solves it directly.
	sp := tr.BeginSpan(v)
	top, n, complete := CollectTop(v, lvl.pri, q, math.Inf(-1), 4*c.f, want)
	tr.EndSpan(v, sp, t1ProbePhase(complete), j, int64(n))
	if complete {
		w.chargeScan(v, n)
		return top
	}

	// |q(R_j)| > 4f: recurse for the pivot, then harvest above it. Eq.
	// (11) guarantees r ≤ f; the clamp covers degenerate parameters.
	r := min(pivotRank(len(lvl.items), c.lambda), c.f)
	sub := c.query(v, q, j+1, r)
	if len(sub) < r {
		w.qstats.fallbacks.Add(1)
		return w.tracedExhaustive(v, lvl.pri, q, c.f, want)
	}
	pivot := sub[r-1].Weight
	sp = tr.BeginSpan(v)
	got, cnt := w.harvest(v, lvl.pri, q, pivot, want)
	tr.EndSpan(v, sp, PhaseT1Harvest, j, int64(cnt))
	if cnt < c.f {
		w.qstats.fallbacks.Add(1)
		return w.tracedExhaustive(v, lvl.pri, q, c.f, want)
	}
	return got
}

// pivotRank is ⌈8λ ln n⌉, the in-sample rank Lemma 2 certifies for an
// application of the lemma to a set of size n. (The paper's §3.2 prose
// writes ⌈8λ ln |q(R_j)|⌉ at the recursion step; the lemma's guarantee is
// stated for ln of the *input* size, which is what we use — any
// discrepancy is caught by the self-check and repaired.)
func pivotRank(n int, lambda float64) int {
	if n < 2 {
		return 1
	}
	r := int(math.Ceil(8 * lambda * math.Log(float64(n))))
	if r < 1 {
		r = 1
	}
	return r
}

// harvest streams every element of q(·) with weight ≥ pivot and keeps
// the want best. It returns those (weight-descending) and the total number
// streamed; a count below the rank the caller needs signals that the pivot
// was too high (a sample failure the caller must repair).
func (w *WorstCase[Q, V]) harvest(v *em.QueryView, p Prioritized[Q, V], q Q, pivot float64, want int) (top []Item[V], cnt int) {
	top, cnt, _ = CollectTop(v, p, q, pivot, math.MaxInt, want)
	w.chargeScan(v, cnt) // k-selection over the harvested batch
	return top, cnt
}

// scanTopK answers by scanning all of D (the k ≥ n/2 path).
func (w *WorstCase[Q, V]) scanTopK(v *em.QueryView, q Q, k int) []Item[V] {
	w.chargeScan(v, len(w.items))
	return scanTop(w.items, w.match, q, k)
}

func (w *WorstCase[Q, V]) chargeScan(v *em.QueryView, nItems int) {
	if w.opts.Tracker != nil {
		w.opts.Tracker.ScanCost(v, nItems)
	}
}
