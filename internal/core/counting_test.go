package core

import (
	"testing"

	"topk/internal/em"
	"topk/internal/wrand"
)

// naiveCount is an exact counting structure over the span test problem.
type naiveCount struct {
	items []Item[float64]
}

func (n *naiveCount) Count(_ *em.QueryView, q span) int {
	c := 0
	for _, it := range n.items {
		if spanMatch(q, it.Value) {
			c++
		}
	}
	return c
}

// overCount over-approximates by a factor of 2 (the paper's c-approximate
// counting setting).
type overCount struct {
	naiveCount
}

func (o *overCount) Count(v *em.QueryView, q span) int { return 2 * o.naiveCount.Count(v, q) }

func buildCounting(t *testing.T, items []Item[float64], approx bool) *CountingBaseline[span, float64] {
	t.Helper()
	cntF := func(sub []Item[float64]) Counting[span] {
		if approx {
			return &overCount{naiveCount{items: sub}}
		}
		return &naiveCount{items: sub}
	}
	cb, err := NewCountingBaseline(items, cntF, naiveFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cb
}

func TestCountingBaselineMatchesOracle(t *testing.T) {
	g := wrand.New(81)
	items := genItems(g, 3000)
	for _, approx := range []bool{false, true} {
		cb := buildCounting(t, items, approx)
		if cb.N() != 3000 {
			t.Fatalf("N = %d", cb.N())
		}
		for trial := 0; trial < 40; trial++ {
			lo := g.Float64() * 100
			q := span{lo, lo + g.Float64()*50}
			for _, k := range []int{1, 7, 100, 1500, 5000} {
				got := cb.TopK(nil, q, k)
				want := oracleTopK(items, q, k)
				sameItems(t, got, want, "counting baseline")
			}
		}
	}
}

func TestCountingBaselineProbesLogarithmic(t *testing.T) {
	g := wrand.New(82)
	items := genItems(g, 1<<13)
	cb := buildCounting(t, items, false)
	const queries = 30
	for i := 0; i < queries; i++ {
		lo := g.Float64() * 90
		cb.TopK(nil, span{lo, lo + 10}, 10)
	}
	perQuery := float64(cb.CountQueries()) / queries
	// The descent issues ~2 counting probes per level over ~13 levels
	// plus shortfall detours; anything near n would mean a broken walk.
	if perQuery > 80 {
		t.Errorf("%.1f counting probes per query; want O(log n)", perQuery)
	}
}

func TestCountingBaselineEdgeCases(t *testing.T) {
	g := wrand.New(83)
	items := genItems(g, 60)
	cb := buildCounting(t, items, false)
	if got := cb.TopK(nil, span{0, 100}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := cb.TopK(nil, span{500, 600}, 5); len(got) != 0 {
		t.Fatalf("empty result returned %v", got)
	}
	got := cb.TopK(nil, span{0, 100}, 999)
	if len(got) != len(items) {
		t.Fatalf("k≫n returned %d items", len(got))
	}
	empty, err := NewCountingBaseline[span, float64](nil,
		func(sub []Item[float64]) Counting[span] { return &naiveCount{items: sub} },
		naiveFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.TopK(nil, span{0, 1}, 3); got != nil {
		t.Fatalf("empty structure returned %v", got)
	}
	if _, err := NewCountingBaseline([]Item[float64]{{1, 5}, {2, 5}},
		func(sub []Item[float64]) Counting[span] { return &naiveCount{items: sub} },
		naiveFactory, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
}
