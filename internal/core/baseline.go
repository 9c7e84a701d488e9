package core

import (
	"math"
	"sort"
	"sync/atomic"

	"topk/internal/em"
)

// This file implements the comparators the paper measures itself against:
//
//   - Baseline: the Rahul–Janardan reduction (binary search on the weight
//     threshold τ), the previous state of the art which Theorem 1
//     improves. Its cost is Eqs. (1)–(2):
//     S_top = O(S_pri),  Q_top = O(Q_pri·log n) + O((k/B)·log n).
//     The multiplicative log n on k/B is exactly what experiments E6
//     visualize.
//   - Scan: the trivial O(n/B) oracle, used as ground truth in tests and
//     as the "no index" baseline in benchmarks.
//   - PrioritizedFromTopK: the known opposite-direction reduction
//     (Section 1.2): prioritized reporting is no harder than top-k.

// Baseline is the Rahul–Janardan binary-search top-k structure.
type Baseline[Q, V any] struct {
	pri     Prioritized[Q, V]
	weights []float64 // all weights, descending: weights[r-1] has rank r
	tracker *em.Tracker
	probes  atomic.Int64 // atomic: queries may run concurrently
}

// NewBaseline builds the binary-search reduction over the given
// prioritized structure. items must be the same set the structure indexes.
func NewBaseline[Q, V any](
	items []Item[V],
	newPri PrioritizedFactory[Q, V],
	tracker *em.Tracker,
) (*Baseline[Q, V], error) {
	if err := ValidateWeights(items); err != nil {
		return nil, err
	}
	d := make([]Item[V], len(items))
	copy(d, items)
	ws := make([]float64, len(d))
	for i, it := range d {
		ws[i] = it.Weight
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	return &Baseline[Q, V]{pri: newPri(d), weights: ws, tracker: tracker}, nil
}

// Probes returns the number of cost-monitored prioritized probes issued so
// far (≈ log₂ n per query), an experiment instrumentation hook.
func (b *Baseline[Q, V]) Probes() int64 { return b.probes.Load() }

// Prioritized exposes the underlying prioritized structure on D.
func (b *Baseline[Q, V]) Prioritized() Prioritized[Q, V] { return b.pri }

// TopK answers a top-k query by binary searching, over the global weight
// ranks, for the smallest rank r such that q(D) contains at least k
// elements of weight ≥ weights[r-1]; each probe is a prioritized query
// cost-monitored at k elements.
func (b *Baseline[Q, V]) TopK(v *em.QueryView, q Q, k int) []Item[V] {
	n := len(b.weights)
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// atLeastK(r) is monotone nondecreasing in r (lower τ ⇒ more results).
	atLeastK := func(r int) bool {
		b.probes.Add(1)
		if b.tracker != nil {
			b.tracker.ScanCost(v, 1) // the rank→weight array probe
		}
		_, _, complete := CollectTop(v, b.pri, q, b.weights[r-1], k-1, 0)
		return !complete
	}
	lo, hi := 1, n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if atLeastK(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	tau := math.Inf(-1) // |q(D)| < k: report everything
	if atLeastK(lo) {
		// Minimality of lo gives |{e ∈ q(D) : w(e) ≥ weights[lo-1]}| = k
		// exactly (lowering the threshold by one global rank adds at most
		// one element).
		tau = b.weights[lo-1]
	}
	// The limit n never cuts the query off: it reports at most n items.
	top, cnt, _ := CollectTop(v, b.pri, q, tau, n, k)
	if b.tracker != nil {
		b.tracker.ScanCost(v, cnt)
	}
	return top
}

// Scan is the trivial structure: no index, answer every query by scanning
// D. It implements TopK, Prioritized, and Max, and serves as the oracle in
// correctness tests.
type Scan[Q, V any] struct {
	items   []Item[V]
	match   MatchFunc[Q, V]
	tracker *em.Tracker
}

// NewScan builds the scanning oracle.
func NewScan[Q, V any](items []Item[V], match MatchFunc[Q, V], tracker *em.Tracker) *Scan[Q, V] {
	d := make([]Item[V], len(items))
	copy(d, items)
	return &Scan[Q, V]{items: d, match: match, tracker: tracker}
}

// TopK scans D and k-selects.
func (s *Scan[Q, V]) TopK(v *em.QueryView, q Q, k int) []Item[V] {
	if s.tracker != nil {
		s.tracker.ScanCost(v, len(s.items))
	}
	return scanTop(s.items, s.match, q, k)
}

// ReportAbove scans D and filters.
func (s *Scan[Q, V]) ReportAbove(v *em.QueryView, q Q, tau float64, emit func(Item[V]) bool) {
	if s.tracker != nil {
		s.tracker.ScanCost(v, len(s.items))
	}
	for _, it := range s.items {
		if it.Weight >= tau && s.match(q, it.Value) {
			if !emit(it) {
				return
			}
		}
	}
}

// MaxItem scans D for the heaviest match.
func (s *Scan[Q, V]) MaxItem(v *em.QueryView, q Q) (Item[V], bool) {
	if s.tracker != nil {
		s.tracker.ScanCost(v, len(s.items))
	}
	best, ok := Item[V]{Weight: math.Inf(-1)}, false
	for _, it := range s.items {
		if s.match(q, it.Value) && it.Weight > best.Weight {
			best, ok = it, true
		}
	}
	return best, ok
}

// PrioritizedFromTopK adapts a top-k structure to answer prioritized
// queries — the known reduction of Section 1.2 showing prioritized
// reporting is no harder than top-k. This implementation uses geometric
// doubling on k: query top-k for k = k0, 2k0, 4k0, … until the k-th result
// falls below τ or q(D) is exhausted. Each round's results extend the
// previous round's prefix (weights are distinct), so items are emitted
// exactly once.
type PrioritizedFromTopK[Q, V any] struct {
	top TopK[Q, V]
	k0  int
}

// NewPrioritizedFromTopK wraps top; k0 is the starting batch size
// (defaults to 16 if ≤ 0 — in EM one would pick B).
func NewPrioritizedFromTopK[Q, V any](top TopK[Q, V], k0 int) *PrioritizedFromTopK[Q, V] {
	if k0 <= 0 {
		k0 = 16
	}
	return &PrioritizedFromTopK[Q, V]{top: top, k0: k0}
}

// ReportAbove emits every item satisfying q with weight ≥ tau, heaviest
// first.
func (p *PrioritizedFromTopK[Q, V]) ReportAbove(v *em.QueryView, q Q, tau float64, emit func(Item[V]) bool) {
	k := p.k0
	emitted := 0
	for {
		res := p.top.TopK(v, q, k)
		for _, it := range res[emitted:] {
			if it.Weight < tau {
				return
			}
			if !emit(it) {
				return
			}
			emitted++
		}
		if len(res) < k {
			return // q(D) exhausted
		}
		k *= 2
	}
}
