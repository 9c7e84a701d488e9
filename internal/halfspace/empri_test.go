package halfspace

import (
	"math"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

func TestEMPrioritizedAgainstOracle(t *testing.T) {
	g := wrand.New(61)
	for _, d := range []int{2, 4} {
		items := genPointsN(g, 1200, d)
		e, err := NewEMPrioritized(items, d, 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.N() != 1200 {
			t.Fatalf("N = %d", e.N())
		}
		for trial := 0; trial < 80; trial++ {
			q := randHalfspace(g, d)
			tau := g.Float64() * 1.2e6
			var got []core.Item[PtN]
			e.ReportAbove(nil, q, tau, func(it core.Item[PtN]) bool {
				got = append(got, it)
				return true
			})
			core.SortByWeightDesc(got)
			want := oracleAboveN(items, q, tau)
			if len(got) != len(want) {
				t.Fatalf("d=%d q(τ=%v): got %d, want %d", d, tau, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i].Weight {
					t.Fatalf("d=%d: item %d = %v, want %v", d, i, got[i].Weight, want[i].Weight)
				}
			}
		}
	}
}

func TestEMPrioritizedTauBoundaries(t *testing.T) {
	g := wrand.New(62)
	items := genPointsN(g, 300, 3)
	e, err := NewEMPrioritized(items, 3, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := Halfspace{A: []float64{1, 0, 0}, C: math.Inf(-1)}

	count := 0
	e.ReportAbove(nil, all, math.Inf(-1), func(core.Item[PtN]) bool { count++; return true })
	if count != len(items) {
		t.Fatalf("τ=-inf reported %d, want all %d", count, len(items))
	}
	sorted := append([]core.Item[PtN](nil), items...)
	core.SortByWeightDesc(sorted)
	count = 0
	e.ReportAbove(nil, all, sorted[7].Weight, func(core.Item[PtN]) bool { count++; return true })
	if count != 8 {
		t.Fatalf("τ at rank-8 weight reported %d, want 8", count)
	}
	count = 0
	e.ReportAbove(nil, all, math.Inf(1), func(core.Item[PtN]) bool { count++; return true })
	if count != 0 {
		t.Fatalf("τ=+inf reported %d", count)
	}
}

func TestEMPrioritizedShape(t *testing.T) {
	// §5.5: fanout f = (n/B)^(ε/2) gives O(1) levels (≈ 2/ε + leaf).
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
	g := wrand.New(63)
	items := genPointsN(g, 1<<14, 4)
	e, err := NewEMPrioritized(items, 4, 0.5, tr)
	if err != nil {
		t.Fatal(err)
	}
	if e.Fanout() < 2 {
		t.Fatalf("fanout = %d", e.Fanout())
	}
	if lv := e.Levels(); lv > 8 {
		t.Fatalf("tree has %d levels; §5.5 promises O(1) (≈ 2/ε + 1)", lv)
	}
	// Early termination still works through the canonical decomposition.
	count := 0
	e.ReportAbove(nil, Halfspace{A: []float64{1, 0, 0, 0}, C: math.Inf(-1)}, math.Inf(-1),
		func(core.Item[PtN]) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestEMPrioritizedValidation(t *testing.T) {
	g := wrand.New(64)
	items := genPointsN(g, 50, 3)
	if _, err := NewEMPrioritized(items, 3, 0, nil); err == nil {
		t.Error("ε = 0 accepted")
	}
	if _, err := NewEMPrioritized(items, 3, 1.5, nil); err == nil {
		t.Error("ε > 1 accepted")
	}
	if _, err := NewEMPrioritized(items, 2, 0.5, nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
	empty, err := NewEMPrioritized(nil, 3, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	empty.ReportAbove(nil, Halfspace{A: []float64{1, 0, 0}, C: 0}, 0, func(core.Item[PtN]) bool {
		count++
		return true
	})
	if count != 0 {
		t.Error("empty structure reported items")
	}
}

func TestEMPrioritizedThroughTheorem1(t *testing.T) {
	// The §5.5 structure is exactly what Theorem 3's third bullet plugs
	// into Theorem 1; run the full pipeline.
	g := wrand.New(65)
	const d = 4
	items := genPointsN(g, 2000, d)
	wc, err := core.NewWorstCase(items, MatchN,
		NewEMPrioritizedFactory(d, 0.5, nil),
		core.WorstCaseOptions{B: 8, Lambda: LambdaN(d), Seed: 3, FScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		q := randHalfspace(g, d)
		want := oracleAboveN(items, q, math.Inf(-1))
		k := 12
		if k > len(want) {
			k = len(want)
		}
		got := wc.TopK(nil, q, 12)
		if len(got) != k {
			t.Fatalf("%d results, want %d", len(got), k)
		}
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("result %d = %v, want %v", i, got[i].Weight, want[i].Weight)
			}
		}
	}
}
