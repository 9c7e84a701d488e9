package dominance

import (
	"math"
	"sort"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

func genPoints(g *wrand.RNG, n int) []core.Item[Pt3] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[Pt3], n)
	for i := range items {
		items[i] = core.Item[Pt3]{
			Value:  Pt3{X: g.Float64() * 100, Y: g.Float64() * 100, Z: g.Float64() * 100},
			Weight: ws[i],
		}
	}
	return items
}

func oracleAbove(items []core.Item[Pt3], q Pt3, tau float64) []core.Item[Pt3] {
	var out []core.Item[Pt3]
	for _, it := range items {
		if it.Weight >= tau && Match(q, it.Value) {
			out = append(out, it)
		}
	}
	core.SortByWeightDesc(out)
	return out
}

func oracleMax(items []core.Item[Pt3], q Pt3) (core.Item[Pt3], bool) {
	best, ok := core.Item[Pt3]{Weight: math.Inf(-1)}, false
	for _, it := range items {
		if Match(q, it.Value) && it.Weight > best.Weight {
			best, ok = it, true
		}
	}
	return best, ok
}

func oracleMinZ(items []core.Item[Pt3], q Pt3) (core.Item[Pt3], bool) {
	best, ok := core.Item[Pt3]{Value: Pt3{Z: math.Inf(1)}}, false
	for _, it := range items {
		if Match(q, it.Value) && it.Value.Z < best.Value.Z {
			best, ok = it, true
		}
	}
	return best, ok
}

func TestMatch(t *testing.T) {
	q := Pt3{5, 5, 5}
	if !Match(q, Pt3{5, 5, 5}) {
		t.Error("boundary point should match (closed dominance)")
	}
	if !Match(q, Pt3{1, 2, 3}) {
		t.Error("dominated point should match")
	}
	if Match(q, Pt3{6, 1, 1}) || Match(q, Pt3{1, 6, 1}) || Match(q, Pt3{1, 1, 6}) {
		t.Error("point exceeding any coordinate should not match")
	}
}

func TestMinZAgainstOracle(t *testing.T) {
	g := wrand.New(1)
	items := genPoints(g, 1500)
	m := NewMinZ(items, nil)
	if m.N() != 1500 {
		t.Fatalf("N = %d", m.N())
	}
	for trial := 0; trial < 400; trial++ {
		q := Pt3{g.Float64() * 110, g.Float64() * 110, g.Float64() * 110}
		got, gok := m.MinItem(nil, q)
		want, wok := oracleMinZ(items, q)
		if gok != wok {
			t.Fatalf("q=%+v: ok=%v, want %v", q, gok, wok)
		}
		if gok && got.Value.Z != want.Value.Z {
			t.Fatalf("q=%+v: minZ=%v, want %v", q, got.Value.Z, want.Value.Z)
		}
		if gok != m.NonEmpty(nil, q) {
			t.Fatalf("NonEmpty disagrees with MinItem at %+v", q)
		}
	}
}

func TestMinZBoundaryQueries(t *testing.T) {
	// Probe exactly at point coordinates: closed dominance must include
	// the boundary.
	g := wrand.New(2)
	items := genPoints(g, 200)
	m := NewMinZ(items, nil)
	for _, it := range items {
		q := it.Value
		got, ok := m.MinItem(nil, q)
		want, _ := oracleMinZ(items, q)
		if !ok {
			t.Fatalf("query at point %+v found nothing (the point dominates itself)", q)
		}
		if got.Value.Z != want.Value.Z {
			t.Fatalf("q=%+v: minZ=%v, want %v", q, got.Value.Z, want.Value.Z)
		}
	}
}

func TestMinZDegenerateInputs(t *testing.T) {
	m := NewMinZ(nil, nil)
	if m.NonEmpty(nil, Pt3{1, 1, 1}) {
		t.Fatal("empty structure non-empty")
	}
	one := []core.Item[Pt3]{{Value: Pt3{5, 5, 5}, Weight: 1}}
	m = NewMinZ(one, nil)
	if !m.NonEmpty(nil, Pt3{5, 5, 5}) {
		t.Fatal("singleton not found at its own corner")
	}
	if m.NonEmpty(nil, Pt3{4.999, 5, 5}) {
		t.Fatal("found point outside the x constraint")
	}

	// All points on a shared x (duplicate sweep coordinates).
	g := wrand.New(3)
	ws := g.UniqueFloats(50, 100)
	var same []core.Item[Pt3]
	for i := 0; i < 50; i++ {
		same = append(same, core.Item[Pt3]{Value: Pt3{42, g.Float64() * 10, g.Float64() * 10}, Weight: ws[i]})
	}
	m = NewMinZ(same, nil)
	for trial := 0; trial < 50; trial++ {
		q := Pt3{42, g.Float64() * 12, g.Float64() * 12}
		_, gok := m.MinItem(nil, q)
		_, wok := oracleMinZ(same, q)
		if gok != wok {
			t.Fatalf("shared-x: q=%+v ok=%v want %v", q, gok, wok)
		}
	}
}

func TestMaxAgainstOracle(t *testing.T) {
	g := wrand.New(4)
	items := genPoints(g, 800)
	m, err := NewMax(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		q := Pt3{g.Float64() * 110, g.Float64() * 110, g.Float64() * 110}
		got, gok := m.MaxItem(nil, q)
		want, wok := oracleMax(items, q)
		if gok != wok {
			t.Fatalf("q=%+v: ok=%v, want %v", q, gok, wok)
		}
		if gok && got.Weight != want.Weight {
			t.Fatalf("q=%+v: max=%v, want %v", q, got.Weight, want.Weight)
		}
	}
}

func TestMaxRejectsDuplicates(t *testing.T) {
	items := []core.Item[Pt3]{
		{Value: Pt3{1, 1, 1}, Weight: 5},
		{Value: Pt3{2, 2, 2}, Weight: 5},
	}
	if _, err := NewMax(items, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
	if _, err := NewPrioritized(items, nil); err == nil {
		t.Fatal("duplicate weights accepted by Prioritized")
	}
}

func TestPrioritizedAgainstOracle(t *testing.T) {
	g := wrand.New(5)
	items := genPoints(g, 1200)
	p, err := NewPrioritized(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 1200 {
		t.Fatalf("N = %d", p.N())
	}
	for trial := 0; trial < 200; trial++ {
		q := Pt3{g.Float64() * 110, g.Float64() * 110, g.Float64() * 110}
		tau := g.Float64() * 1.2e6
		var got []core.Item[Pt3]
		p.ReportAbove(nil, q, tau, func(it core.Item[Pt3]) bool {
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
				t.Fatalf("q=%+v: item %d weight %v, want %v", q, i, got[i].Weight, want[i].Weight)
			}
		}
	}
}

func TestPrioritizedTauEdges(t *testing.T) {
	g := wrand.New(6)
	items := genPoints(g, 300)
	p, _ := NewPrioritized(items, nil)
	q := Pt3{110, 110, 110} // everything matches spatially

	count := 0
	p.ReportAbove(nil, q, math.Inf(-1), func(core.Item[Pt3]) bool { count++; return true })
	if count != len(items) {
		t.Fatalf("tau=-inf reported %d, want all %d", count, len(items))
	}
	count = 0
	p.ReportAbove(nil, q, math.Inf(1), func(core.Item[Pt3]) bool { count++; return true })
	if count != 0 {
		t.Fatalf("tau=+inf reported %d, want 0", count)
	}
	// tau exactly at an existing weight: that item must be included.
	sorted := append([]core.Item[Pt3](nil), items...)
	core.SortByWeightDesc(sorted)
	tau := sorted[10].Weight
	count = 0
	p.ReportAbove(nil, q, tau, func(core.Item[Pt3]) bool { count++; return true })
	if count != 11 {
		t.Fatalf("tau at rank-11 weight reported %d, want 11", count)
	}
}

func TestPrioritizedEarlyStop(t *testing.T) {
	g := wrand.New(7)
	items := genPoints(g, 500)
	p, _ := NewPrioritized(items, nil)
	count := 0
	p.ReportAbove(nil, Pt3{110, 110, 110}, math.Inf(-1), func(core.Item[Pt3]) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d, want 7", count)
	}
}

func TestPrioritizedIOCharging(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	g := wrand.New(8)
	items := genPoints(g, 1<<12)
	p, err := NewPrioritized(items, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	count := 0
	p.ReportAbove(nil, Pt3{50, 50, 50}, math.Inf(-1), func(core.Item[Pt3]) bool { count++; return true })
	ios := tr.Stats().IOs()
	if count > 0 && ios == 0 {
		t.Fatal("query charged no I/Os")
	}
	if ios > int64(count)+200 {
		t.Errorf("query charged %d I/Os for %d results; too far from polylog + t/B", ios, count)
	}
}

func TestMinZVersionCountMatchesSweep(t *testing.T) {
	g := wrand.New(9)
	items := genPoints(g, 256)
	m := NewMinZ(items, nil)
	if len(m.versions) != len(items)+1 {
		t.Fatalf("%d versions, want n+1 = %d", len(m.versions), len(items)+1)
	}
	// Version sizes are monotone ≤ and the staircase is strictly
	// y-increasing / z-decreasing in every version.
	for i, v := range m.versions {
		var prevY, prevZ float64
		first := true
		okStair := true
		v.Ascend(math.Inf(-1), func(k float64, val stepVal) bool {
			if !first && (k <= prevY || val.z >= prevZ) {
				okStair = false
				return false
			}
			prevY, prevZ, first = k, val.z, false
			return true
		})
		if !okStair {
			t.Fatalf("version %d staircase violated monotonicity", i)
		}
	}
	_ = sort.Float64sAreSorted(m.xs)
}
