package core

import (
	"math"
	"testing"

	"topk/internal/wrand"
)

func TestBaselineMatchesOracle(t *testing.T) {
	g := wrand.New(61)
	items := genItems(g, 4000)
	b, err := NewBaseline(items, naiveFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lo := g.Float64() * 100
		q := span{lo, lo + g.Float64()*60}
		for _, k := range []int{1, 3, 17, 256, 2000, 4000, 8000} {
			sameItems(t, b.TopK(nil, q, k), oracleTopK(items, q, k), "baseline topk")
		}
	}
}

func TestBaselineProbeCountIsLogarithmic(t *testing.T) {
	g := wrand.New(62)
	items := genItems(g, 1<<14)
	b, err := NewBaseline(items, naiveFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 20
	for i := 0; i < queries; i++ {
		lo := g.Float64() * 80
		b.TopK(nil, span{lo, lo + 20}, 10)
	}
	perQuery := float64(b.Probes()) / queries
	// Binary search over n ranks: ~log2(n)+1 probes plus the final one.
	bound := math.Log2(float64(1<<14)) + 3
	if perQuery > bound {
		t.Errorf("probes per query %.1f > %.1f (binary search broken?)", perQuery, bound)
	}
}

func TestBaselineEdgeCases(t *testing.T) {
	g := wrand.New(63)
	items := genItems(g, 50)
	b, err := NewBaseline(items, naiveFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.TopK(nil, span{0, 100}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := b.TopK(nil, span{900, 999}, 5); len(got) != 0 {
		t.Fatalf("empty result returned %v", got)
	}
	got := b.TopK(nil, span{0, 100}, 1000)
	if len(got) != len(items) {
		t.Fatalf("k≫n returned %d items, want %d", len(got), len(items))
	}
	empty, err := NewBaseline[span, float64](nil, naiveFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.TopK(nil, span{0, 1}, 3); len(got) != 0 {
		t.Fatalf("empty structure returned %v", got)
	}
	if _, err := NewBaseline([]Item[float64]{{1, 5}, {2, 5}}, naiveFactory, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
}

func TestScanOracle(t *testing.T) {
	g := wrand.New(64)
	items := genItems(g, 300)
	s := NewScan(items, spanMatch, nil)
	q := span{10, 60}

	sameItems(t, s.TopK(nil, q, 7), oracleTopK(items, q, 7), "scan topk")

	// Prioritized semantics.
	var got []Item[float64]
	s.ReportAbove(nil, q, 500, func(it Item[float64]) bool {
		got = append(got, it)
		return true
	})
	for _, it := range got {
		if it.Weight < 500 || !spanMatch(q, it.Value) {
			t.Fatalf("ReportAbove emitted non-matching item %+v", it)
		}
	}
	want := 0
	for _, it := range items {
		if it.Weight >= 500 && spanMatch(q, it.Value) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("ReportAbove emitted %d items, want %d", len(got), want)
	}

	// Max semantics.
	mx, ok := s.MaxItem(nil, q)
	wantTop := oracleTopK(items, q, 1)
	if len(wantTop) == 0 {
		if ok {
			t.Fatal("MaxItem found an item in an empty range")
		}
	} else if !ok || mx.Weight != wantTop[0].Weight {
		t.Fatalf("MaxItem = %+v,%v want %+v", mx, ok, wantTop[0])
	}

	// Early termination.
	count := 0
	s.ReportAbove(nil, q, math.Inf(-1), func(Item[float64]) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early-terminated enumeration visited %d items, want 3", count)
	}
}

func TestPrioritizedFromTopK(t *testing.T) {
	g := wrand.New(65)
	items := genItems(g, 1000)
	oracle := NewScan(items, spanMatch, nil)
	p := NewPrioritizedFromTopK[span, float64](oracle, 4)

	for trial := 0; trial < 30; trial++ {
		lo := g.Float64() * 90
		q := span{lo, lo + g.Float64()*40}
		tau := g.Float64() * 1000
		var got []Item[float64]
		p.ReportAbove(nil, q, tau, func(it Item[float64]) bool {
			got = append(got, it)
			return true
		})
		// Results must be exactly the oracle's prioritized answer,
		// heaviest first.
		var want []Item[float64]
		oracle.ReportAbove(nil, q, tau, func(it Item[float64]) bool {
			want = append(want, it)
			return true
		})
		SortByWeightDesc(want)
		sameItems(t, got, want, "prioritized-from-topk")
	}

	// Early stop must not over-enumerate.
	count := 0
	p.ReportAbove(nil, span{0, 100}, math.Inf(-1), func(Item[float64]) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}
