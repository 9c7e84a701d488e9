package enclosure

import (
	"math"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

func genRects(g *wrand.RNG, n int) []core.Item[Rect] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[Rect], n)
	for i := range items {
		x1, y1 := g.Float64()*100, g.Float64()*100
		items[i] = core.Item[Rect]{
			Value:  Rect{X1: x1, X2: x1 + g.ExpFloat64()*15, Y1: y1, Y2: y1 + g.ExpFloat64()*15},
			Weight: ws[i],
		}
	}
	return items
}

func oracleAbove(items []core.Item[Rect], q Pt2, tau float64) []core.Item[Rect] {
	var out []core.Item[Rect]
	for _, it := range items {
		if it.Weight >= tau && it.Value.Contains(q) {
			out = append(out, it)
		}
	}
	core.SortByWeightDesc(out)
	return out
}

func oracleMax(items []core.Item[Rect], q Pt2) (core.Item[Rect], bool) {
	best, ok := core.Item[Rect]{Weight: math.Inf(-1)}, false
	for _, it := range items {
		if it.Value.Contains(q) && it.Weight > best.Weight {
			best, ok = it, true
		}
	}
	return best, ok
}

func TestRectContains(t *testing.T) {
	r := Rect{1, 3, 10, 20}
	for _, c := range []struct {
		q    Pt2
		want bool
	}{
		{Pt2{1, 10}, true}, {Pt2{3, 20}, true}, {Pt2{2, 15}, true},
		{Pt2{0.9, 15}, false}, {Pt2{3.1, 15}, false},
		{Pt2{2, 9.9}, false}, {Pt2{2, 20.1}, false},
	} {
		if got := r.Contains(c.q); got != c.want {
			t.Errorf("Contains(%+v) = %v, want %v", c.q, got, c.want)
		}
	}
	if (Rect{3, 1, 0, 1}).Valid() {
		t.Error("reversed rect valid")
	}
}

func TestPrioritizedAgainstOracle(t *testing.T) {
	g := wrand.New(1)
	items := genRects(g, 1000)
	p, err := NewPrioritized(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 1000 {
		t.Fatalf("N = %d", p.N())
	}
	for trial := 0; trial < 200; trial++ {
		q := Pt2{g.Float64() * 120, g.Float64() * 120}
		tau := g.Float64() * 1.2e6
		var got []core.Item[Rect]
		p.ReportAbove(nil, q, tau, func(it core.Item[Rect]) bool {
			got = append(got, it)
			return true
		})
		core.SortByWeightDesc(got)
		want := oracleAbove(items, q, tau)
		if len(got) != len(want) {
			t.Fatalf("q=%+v tau=%v: got %d, want %d", q, tau, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("q=%+v: item %d = %v, want %v", q, i, got[i].Weight, want[i].Weight)
			}
		}
	}
}

func TestPrioritizedCornerQueries(t *testing.T) {
	// Queries exactly on rectangle corners exercise both closed-boundary
	// dimensions at once.
	g := wrand.New(2)
	items := genRects(g, 200)
	p, _ := NewPrioritized(items, nil)
	for _, it := range items[:50] {
		r := it.Value
		for _, q := range []Pt2{{r.X1, r.Y1}, {r.X2, r.Y2}, {r.X1, r.Y2}, {r.X2, r.Y1}} {
			count := 0
			p.ReportAbove(nil, q, math.Inf(-1), func(core.Item[Rect]) bool { count++; return true })
			if want := len(oracleAbove(items, q, math.Inf(-1))); count != want {
				t.Fatalf("corner %+v: reported %d, want %d", q, count, want)
			}
		}
	}
}

func TestPrioritizedEarlyStop(t *testing.T) {
	g := wrand.New(3)
	items := genRects(g, 400)
	p, _ := NewPrioritized(items, nil)
	count := 0
	p.ReportAbove(nil, Pt2{50, 50}, math.Inf(-1), func(core.Item[Rect]) bool {
		count++
		return count < 3
	})
	if count > 3 {
		t.Fatalf("early stop emitted %d", count)
	}
}

func TestMaxAgainstOracle(t *testing.T) {
	g := wrand.New(4)
	items := genRects(g, 900)
	m, err := NewMax(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
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

func TestEmptyAndDegenerate(t *testing.T) {
	p, err := NewPrioritized(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	p.ReportAbove(nil, Pt2{1, 1}, math.Inf(-1), func(core.Item[Rect]) bool { count++; return true })
	if count != 0 {
		t.Fatal("empty structure reported items")
	}
	m, err := NewMax(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.MaxItem(nil, Pt2{1, 1}); ok {
		t.Fatal("empty structure found a max")
	}

	// Degenerate point rectangle.
	one := []core.Item[Rect]{{Value: Rect{5, 5, 7, 7}, Weight: 3}}
	m, _ = NewMax(one, nil)
	if it, ok := m.MaxItem(nil, Pt2{5, 7}); !ok || it.Weight != 3 {
		t.Fatalf("point rect not found at its own corner: %+v %v", it, ok)
	}
	if _, ok := m.MaxItem(nil, Pt2{5, 7.001}); ok {
		t.Fatal("point rect matched a nearby query")
	}
}

func TestRejectsBadInput(t *testing.T) {
	if _, err := NewPrioritized([]core.Item[Rect]{{Value: Rect{3, 1, 0, 1}, Weight: 1}}, nil); err == nil {
		t.Fatal("reversed rect accepted")
	}
	dup := []core.Item[Rect]{
		{Value: Rect{0, 1, 0, 1}, Weight: 7},
		{Value: Rect{2, 3, 2, 3}, Weight: 7},
	}
	if _, err := NewMax(dup, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
}

func TestIOCharging(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	g := wrand.New(5)
	items := genRects(g, 1<<12)
	m, err := NewMax(items, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	m.MaxItem(nil, Pt2{50, 50})
	ios := tr.Stats().IOs()
	if ios == 0 {
		t.Fatal("MaxItem charged no I/Os")
	}
	// Path of ~log2(8192) nodes, each a log_B probe: should be far from a
	// scan (4096*6 words / 64 = 384 blocks).
	if ios > 150 {
		t.Errorf("MaxItem charged %d I/Os; too close to a scan", ios)
	}
}

func TestFactories(t *testing.T) {
	g := wrand.New(6)
	items := genRects(g, 300)
	p := NewPrioritizedFactory(nil)(items)
	m := NewMaxFactory(nil)(items)
	q := Pt2{50, 50}
	var got []core.Item[Rect]
	p.ReportAbove(nil, q, math.Inf(-1), func(it core.Item[Rect]) bool {
		got = append(got, it)
		return true
	})
	want := oracleAbove(items, q, math.Inf(-1))
	if len(got) != len(want) {
		t.Fatalf("factory prioritized: %d items, want %d", len(got), len(want))
	}
	gm, gok := m.MaxItem(nil, q)
	wm, wok := oracleMax(items, q)
	if gok != wok || (gok && gm.Weight != wm.Weight) {
		t.Fatalf("factory max mismatch")
	}
	if !Match(Pt2{1, 1}, Rect{0, 2, 0, 2}) || Match(Pt2{3, 1}, Rect{0, 2, 0, 2}) {
		t.Fatal("Match wrong")
	}
}
