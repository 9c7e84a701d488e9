package enclosure

import (
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

func TestMaxCascadeAgainstOracle(t *testing.T) {
	g := wrand.New(11)
	items := genRects(g, 900)
	m, err := NewMaxCascade(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 900 {
		t.Fatalf("N = %d", m.N())
	}
	for trial := 0; trial < 400; trial++ {
		q := Pt2{g.Float64() * 120, g.Float64() * 120}
		got, gok := m.MaxItem(nil, q)
		want, wok := oracleMax(items, q)
		if gok != wok {
			t.Fatalf("q=%+v: ok=%v want %v", q, gok, wok)
		}
		if gok && got.Weight != want.Weight {
			t.Fatalf("q=%+v: %v, want %v", q, got.Weight, want.Weight)
		}
	}
}

func TestMaxCascadeCornerQueries(t *testing.T) {
	// Exact rectangle corners: the cascaded predecessor must land on the
	// point region, not the gap.
	g := wrand.New(12)
	items := genRects(g, 250)
	m, err := NewMaxCascade(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewMax(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		r := it.Value
		for _, q := range []Pt2{{r.X1, r.Y1}, {r.X2, r.Y2}, {r.X1, r.Y2}, {r.X2, r.Y1}} {
			a, aok := m.MaxItem(nil, q)
			b, bok := plain.MaxItem(nil, q)
			if aok != bok || (aok && a.Weight != b.Weight) {
				t.Fatalf("corner %+v: cascade (%v,%v) vs plain (%v,%v)", q, a.Weight, aok, b.Weight, bok)
			}
		}
	}
}

func TestMaxCascadeEmpty(t *testing.T) {
	m, err := NewMaxCascade(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.MaxItem(nil, Pt2{1, 1}); ok {
		t.Fatal("empty cascade structure found a max")
	}
}

func TestMaxCascadeCheaperThanPlain(t *testing.T) {
	// The whole point of fractional cascading: one search instead of one
	// per node. Measured I/Os must be strictly lower at scale.
	g := wrand.New(13)
	items := genRects(g, 1<<13)

	trP := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	plain, err := NewMax(items, trP)
	if err != nil {
		t.Fatal(err)
	}
	trC := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	casc, err := NewMaxCascade(items, trC)
	if err != nil {
		t.Fatal(err)
	}
	var pIOs, cIOs int64
	const queries = 50
	for i := 0; i < queries; i++ {
		q := Pt2{18 + g.Float64()*45, 140 + g.Float64()*60}
		trP.DropCache()
		trP.ResetCounters()
		a, aok := plain.MaxItem(nil, q)
		pIOs += trP.Stats().IOs()

		trC.DropCache()
		trC.ResetCounters()
		b, bok := casc.MaxItem(nil, q)
		cIOs += trC.Stats().IOs()

		if aok != bok || (aok && a.Weight != b.Weight) {
			t.Fatalf("q=%+v: plain (%v,%v) vs cascade (%v,%v)", q, a.Weight, aok, b.Weight, bok)
		}
	}
	if cIOs >= pIOs {
		t.Errorf("cascading did not help: %d I/Os vs plain %d", cIOs, pIOs)
	}
}

func TestMaxCascadeFactory(t *testing.T) {
	g := wrand.New(14)
	items := genRects(g, 300)
	m := NewMaxCascadeFactory(nil)(items)
	q := Pt2{50, 50}
	got, gok := m.MaxItem(nil, q)
	want, wok := oracleMax(items, q)
	if gok != wok || (gok && got.Weight != want.Weight) {
		t.Fatalf("factory cascade mismatch")
	}
	var _ core.Max[Pt2, Rect] = m
}
