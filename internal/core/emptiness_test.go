package core

import (
	"testing"

	"topk/internal/em"
	"topk/internal/wrand"
)

type naiveEmpt struct {
	items []Item[float64]
}

func (n *naiveEmpt) NonEmpty(_ *em.QueryView, q span) bool {
	for _, it := range n.items {
		if spanMatch(q, it.Value) {
			return true
		}
	}
	return false
}

func TestMaxFromEmptinessMatchesOracle(t *testing.T) {
	g := wrand.New(71)
	items := genItems(g, 1000)
	m := NewMaxFromEmptiness(items, func(sub []Item[float64]) Emptiness[span] {
		return &naiveEmpt{items: sub}
	}, nil)
	if m.N() != 1000 {
		t.Fatalf("N = %d", m.N())
	}
	for trial := 0; trial < 200; trial++ {
		lo := g.Float64() * 110
		q := span{lo, lo + g.Float64()*20}
		want := oracleTopK(items, q, 1)
		got, ok := m.MaxItem(nil, q)
		if len(want) == 0 {
			if ok {
				t.Fatalf("q=%+v: found %+v in empty result", q, got)
			}
			continue
		}
		if !ok || got.Weight != want[0].Weight {
			t.Fatalf("q=%+v: max (%v,%v), want %v", q, got.Weight, ok, want[0].Weight)
		}
	}
}

func TestMaxFromEmptinessProbeCount(t *testing.T) {
	g := wrand.New(72)
	items := genItems(g, 1<<12)
	m := NewMaxFromEmptiness(items, func(sub []Item[float64]) Emptiness[span] {
		return &naiveEmpt{items: sub}
	}, nil)
	const queries = 50
	for i := 0; i < queries; i++ {
		lo := g.Float64() * 90
		m.MaxItem(nil, span{lo, lo + 10})
	}
	perQuery := float64(m.EmptinessQueries()) / queries
	if perQuery > 2*12+3 {
		t.Errorf("%.1f emptiness probes per query; want ≤ ~2 log n", perQuery)
	}
}

func TestMaxFromEmptinessEmptyAndSingleton(t *testing.T) {
	m := NewMaxFromEmptiness(nil, func(sub []Item[float64]) Emptiness[span] {
		return &naiveEmpt{items: sub}
	}, nil)
	if _, ok := m.MaxItem(nil, span{0, 1}); ok {
		t.Fatal("empty structure found a max")
	}
	one := []Item[float64]{{Value: 5, Weight: 9}}
	m = NewMaxFromEmptiness(one, func(sub []Item[float64]) Emptiness[span] {
		return &naiveEmpt{items: sub}
	}, nil)
	if it, ok := m.MaxItem(nil, span{4, 6}); !ok || it.Weight != 9 {
		t.Fatalf("singleton MaxItem = %+v,%v", it, ok)
	}
	if _, ok := m.MaxItem(nil, span{6, 7}); ok {
		t.Fatal("singleton matched a non-containing query")
	}
}
