package interval

import (
	"topk/internal/core"
	"topk/internal/em"
)

// Factory adapters plugging the interval structures into the reductions of
// internal/core. The predicate type is the stabbing point (float64).
//
// Lambda: interval stabbing is 1-polynomially bounded — the 2n endpoints
// induce at most 2n+1 distinct outcomes q(D), so λ = 1 suffices for
// Theorem 1 (any λ ≥ 1 is sound).
const Lambda = 1

// NewPrioritizedFactory returns a factory building interval trees for
// arbitrary subsets, as the Theorem 1/2 reductions require. Build errors
// panic: the reductions feed back subsets of an already-validated input,
// so a failure here is a programming error, not an input error.
func NewPrioritizedFactory[V Spanned](tracker *em.Tracker) core.PrioritizedFactory[float64, V] {
	return func(items []core.Item[V]) core.Prioritized[float64, V] {
		t, err := NewTree(items, tracker)
		if err != nil {
			panic(err)
		}
		return t
	}
}

// NewDynamicPrioritizedFactory is the updatable variant.
func NewDynamicPrioritizedFactory[V Spanned](tracker *em.Tracker) core.DynamicPrioritizedFactory[float64, V] {
	return func(items []core.Item[V]) core.DynamicPrioritized[float64, V] {
		t, err := NewTree(items, tracker)
		if err != nil {
			panic(err)
		}
		return t
	}
}

// NewMaxFactory returns a factory building the static folklore stabbing-max
// structure (Section 5.2) for arbitrary subsets.
func NewMaxFactory[V Spanned](tracker *em.Tracker) core.MaxFactory[float64, V] {
	return func(items []core.Item[V]) core.Max[float64, V] {
		s, err := NewStabMax1D(items, tracker)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// NewDynamicMaxFactory returns a factory building dynamic stabbing-max
// structures (interval trees queried only for their max), the role of the
// stabbing-semigroup structure of Agarwal et al. in Theorem 4.
func NewDynamicMaxFactory[V Spanned](tracker *em.Tracker) core.DynamicMaxFactory[float64, V] {
	return func(items []core.Item[V]) core.DynamicMax[float64, V] {
		t, err := NewTree(items, tracker)
		if err != nil {
			panic(err)
		}
		return t
	}
}

// Match reports whether the interval contains the stabbing point; this is
// the predicate evaluator the reductions use for base-case scans.
func Match[V Spanned](q float64, v V) bool { return v.Span().Contains(q) }

// NewCountingFactory returns a factory building exact stabbing-count
// structures (interval trees queried only through Count), the counting
// role in the Rahul–Janardan counting reduction of the paper's Section 2.
func NewCountingFactory[V Spanned](tracker *em.Tracker) core.CountingFactory[float64, V] {
	return func(items []core.Item[V]) core.Counting[float64] {
		t, err := NewTree(items, tracker)
		if err != nil {
			panic(err)
		}
		return countAdapter[V]{t}
	}
}

type countAdapter[V Spanned] struct {
	t *Tree[V]
}

func (c countAdapter[V]) Count(v *em.QueryView, q float64) int { return c.t.Count(v, q) }
