package orthorange

import (
	"math"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/halfspace"
	"topk/internal/wrand"
)

func genPoints(g *wrand.RNG, n, d int) []core.Item[halfspace.PtN] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[halfspace.PtN], n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = g.Float64() * 100
		}
		items[i] = core.Item[halfspace.PtN]{Value: halfspace.PtN{C: c}, Weight: ws[i]}
	}
	return items
}

func randBox(g *wrand.RNG, d int) Box {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := range lo {
		lo[j] = g.Float64() * 90
		hi[j] = lo[j] + g.Float64()*40
	}
	return Box{Lo: lo, Hi: hi}
}

func TestBoxPredicates(t *testing.T) {
	b := Box{Lo: []float64{0, 10}, Hi: []float64{5, 20}}
	if !b.ContainsPoint([]float64{0, 10}) || !b.ContainsPoint([]float64{5, 20}) {
		t.Error("closed boundary excluded")
	}
	if b.ContainsPoint([]float64{5.1, 15}) || b.ContainsPoint([]float64{3, 9.9}) {
		t.Error("outside point included")
	}
	in, out := b.ClassifyBox([]float64{1, 11}, []float64{4, 19})
	if !in || out {
		t.Errorf("nested box: in=%v out=%v", in, out)
	}
	in, out = b.ClassifyBox([]float64{6, 11}, []float64{8, 19})
	if in || !out {
		t.Errorf("disjoint box: in=%v out=%v", in, out)
	}
	in, out = b.ClassifyBox([]float64{4, 11}, []float64{8, 19})
	if in || out {
		t.Errorf("straddling box: in=%v out=%v", in, out)
	}
	if !b.Valid(2) || b.Valid(3) {
		t.Error("Valid dimension check wrong")
	}
	if (Box{Lo: []float64{5}, Hi: []float64{2}}).Valid(1) {
		t.Error("reversed box valid")
	}
}

func TestIndexAgainstOracle(t *testing.T) {
	g := wrand.New(1)
	for _, d := range []int{2, 3} {
		items := genPoints(g, 900, d)
		ix, err := NewIndex(items, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ix.N() != 900 {
			t.Fatalf("N = %d", ix.N())
		}
		for trial := 0; trial < 100; trial++ {
			q := randBox(g, d)
			tau := g.Float64() * 1.2e6

			var got []core.Item[halfspace.PtN]
			ix.ReportAbove(nil, q, tau, func(it core.Item[halfspace.PtN]) bool {
				got = append(got, it)
				return true
			})
			wantN, bestW, any := 0, math.Inf(-1), false
			for _, it := range items {
				if q.ContainsPoint(it.Value.C) {
					if it.Weight >= tau {
						wantN++
					}
					if it.Weight > bestW {
						bestW, any = it.Weight, true
					}
				}
			}
			if len(got) != wantN {
				t.Fatalf("d=%d: reported %d, want %d", d, len(got), wantN)
			}
			for _, it := range got {
				if it.Weight < tau || !q.ContainsPoint(it.Value.C) {
					t.Fatalf("d=%d: out-of-range emission %+v", d, it)
				}
			}
			m, ok := ix.MaxItem(nil, q)
			if ok != any || (ok && m.Weight != bestW) {
				t.Fatalf("d=%d: max (%v,%v), want (%v,%v)", d, m.Weight, ok, bestW, any)
			}
		}
	}
}

func TestIndexThroughReductions(t *testing.T) {
	g := wrand.New(2)
	const d = 2
	items := genPoints(g, 1500, d)
	exp, err := core.NewExpected(items, Match,
		NewPrioritizedFactory(d, nil), NewMaxFactory(d, nil),
		core.ExpectedOptions{B: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := core.NewWorstCase(items, Match, NewPrioritizedFactory(d, nil),
		core.WorstCaseOptions{B: 8, Lambda: Lambda(d), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := randBox(g, d)
		var ws []float64
		for _, it := range items {
			if q.ContainsPoint(it.Value.C) {
				ws = append(ws, it.Weight)
			}
		}
		want := core.TopKOf(wrapW(ws), 12)
		for name, topkFn := range map[string]func() []core.Item[halfspace.PtN]{
			"expected":  func() []core.Item[halfspace.PtN] { return exp.TopK(nil, q, 12) },
			"worstcase": func() []core.Item[halfspace.PtN] { return wc.TopK(nil, q, 12) },
		} {
			got := topkFn()
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i].Weight {
					t.Fatalf("%s: result %d = %v, want %v", name, i, got[i].Weight, want[i].Weight)
				}
			}
		}
	}
}

func wrapW(ws []float64) []core.Item[struct{}] {
	out := make([]core.Item[struct{}], len(ws))
	for i, w := range ws {
		out[i].Weight = w
	}
	return out
}

func TestIndexValidation(t *testing.T) {
	g := wrand.New(3)
	items := genPoints(g, 50, 2)
	ix, err := NewIndex(items, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Malformed queries return nothing rather than panicking.
	if _, ok := ix.MaxItem(nil, Box{Lo: []float64{5, 5}, Hi: []float64{1, 1}}); ok {
		t.Error("reversed box matched")
	}
	count := 0
	ix.ReportAbove(nil, Box{Lo: []float64{0}, Hi: []float64{1}}, 0, func(core.Item[halfspace.PtN]) bool {
		count++
		return true
	})
	if count != 0 {
		t.Error("dimension-mismatched box reported items")
	}
	if _, err := NewBox([]float64{0, 0}, []float64{1}); err == nil {
		t.Error("NewBox accepted mismatched lengths")
	}
	if _, err := NewBox([]float64{2}, []float64{1}); err == nil {
		t.Error("NewBox accepted reversed box")
	}
	if b, err := NewBox([]float64{1, 2}, []float64{3, 4}); err != nil || !b.Valid(2) {
		t.Errorf("NewBox rejected valid box: %v", err)
	}
}

func TestIOCharging(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	g := wrand.New(4)
	items := genPoints(g, 1<<12, 2)
	ix, err := NewIndex(items, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	count := 0
	ix.ReportAbove(nil, randBox(g, 2), math.Inf(-1), func(core.Item[halfspace.PtN]) bool {
		count++
		return true
	})
	if count > 0 && tr.Stats().IOs() == 0 {
		t.Fatal("query charged no I/Os")
	}
}
