package halfspace

import (
	"math"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

func genPoints2(g *wrand.RNG, n int) []core.Item[Pt2] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[Pt2], n)
	for i := range items {
		items[i] = core.Item[Pt2]{
			Value:  Pt2{X: g.NormFloat64() * 10, Y: g.NormFloat64() * 10},
			Weight: ws[i],
		}
	}
	return items
}

func randHalfplane(g *wrand.RNG) Halfplane {
	theta := g.Float64() * 2 * math.Pi
	a, b := math.Cos(theta), math.Sin(theta)
	c := g.NormFloat64() * 8
	return Halfplane{A: a, B: b, C: c}
}

func oracleAbove2(items []core.Item[Pt2], q Halfplane, tau float64) []core.Item[Pt2] {
	var out []core.Item[Pt2]
	for _, it := range items {
		if it.Weight >= tau && q.Contains(it.Value) {
			out = append(out, it)
		}
	}
	core.SortByWeightDesc(out)
	return out
}

func TestHullExtremeAgainstScan(t *testing.T) {
	g := wrand.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 3 + g.IntN(500)
		pts := make([]Pt2, n)
		for i := range pts {
			pts[i] = Pt2{g.NormFloat64() * 5, g.NormFloat64() * 5}
		}
		h := BuildHull(pts)
		for probe := 0; probe < 20; probe++ {
			theta := g.Float64() * 2 * math.Pi
			a, b := math.Cos(theta), math.Sin(theta)
			got, _ := h.ExtremeDot(a, b)
			want := math.Inf(-1)
			for _, p := range pts {
				if d := p.Dot(a, b); d > want {
					want = d
				}
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: ExtremeDot(%v,%v) = %v, want %v", trial, a, b, got, want)
			}
		}
	}
}

func TestHullDegenerate(t *testing.T) {
	if !BuildHull(nil).Empty() {
		t.Fatal("empty hull not empty")
	}
	h := BuildHull([]Pt2{{1, 2}})
	if got, _ := h.ExtremeDot(1, 0); got != 1 {
		t.Fatalf("singleton extreme = %v", got)
	}
	// Collinear points: all must be hull boundary vertices.
	col := []Pt2{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	h = BuildHull(col)
	if len(h.Vertices()) != 4 {
		t.Fatalf("collinear hull kept %d of 4 boundary points", len(h.Vertices()))
	}
	// Duplicates collapse.
	h = BuildHull([]Pt2{{1, 1}, {1, 1}, {2, 2}})
	if len(h.Vertices()) != 2 {
		t.Fatalf("duplicate points not collapsed: %d vertices", len(h.Vertices()))
	}
}

func TestReporterAgainstOracle(t *testing.T) {
	g := wrand.New(2)
	items := genPoints2(g, 1000)
	r := NewReporter(items, nil)
	if r.N() != 1000 || r.Layers() == 0 {
		t.Fatalf("N=%d layers=%d", r.N(), r.Layers())
	}
	for trial := 0; trial < 200; trial++ {
		q := randHalfplane(g)
		var got []core.Item[Pt2]
		r.Report(nil, q, func(it core.Item[Pt2]) bool {
			got = append(got, it)
			return true
		})
		core.SortByWeightDesc(got)
		want := oracleAbove2(items, q, math.Inf(-1))
		if len(got) != len(want) {
			t.Fatalf("q=%+v: got %d, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("q=%+v: item %d = %v, want %v", q, i, got[i].Weight, want[i].Weight)
			}
		}
		if r.NonEmpty(nil, q) != (len(want) > 0) {
			t.Fatalf("q=%+v: NonEmpty=%v but %d results", q, r.NonEmpty(nil, q), len(want))
		}
	}
}

func TestReporterEarlyStop(t *testing.T) {
	g := wrand.New(3)
	items := genPoints2(g, 300)
	r := NewReporter(items, nil)
	count := 0
	r.Report(nil, Halfplane{A: 1, B: 0, C: math.Inf(-1)}, func(core.Item[Pt2]) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestReporterDuplicateCoordinates(t *testing.T) {
	// Two items at the same point must both be reported.
	items := []core.Item[Pt2]{
		{Value: Pt2{1, 1}, Weight: 10},
		{Value: Pt2{1, 1}, Weight: 20},
		{Value: Pt2{5, 5}, Weight: 30},
	}
	r := NewReporter(items, nil)
	count := 0
	r.Report(nil, Halfplane{A: 1, B: 0, C: 0}, func(core.Item[Pt2]) bool {
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("reported %d of 3 items with duplicate coordinates", count)
	}
}

func TestMaxAgainstOracle2D(t *testing.T) {
	g := wrand.New(4)
	items := genPoints2(g, 600)
	m, err := NewMax(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		q := randHalfplane(g)
		got, gok := m.MaxItem(nil, q)
		want := oracleAbove2(items, q, math.Inf(-1))
		if len(want) == 0 {
			if gok {
				t.Fatalf("q=%+v: found %v in empty halfplane", q, got.Weight)
			}
			continue
		}
		if !gok || got.Weight != want[0].Weight {
			t.Fatalf("q=%+v: max (%v,%v), want %v", q, got.Weight, gok, want[0].Weight)
		}
	}
}

func TestPrioritized2DAgainstOracle(t *testing.T) {
	g := wrand.New(5)
	items := genPoints2(g, 800)
	p, err := NewPrioritized(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 150; trial++ {
		q := randHalfplane(g)
		tau := g.Float64() * 1.2e6
		var got []core.Item[Pt2]
		p.ReportAbove(nil, q, tau, func(it core.Item[Pt2]) bool {
			got = append(got, it)
			return true
		})
		core.SortByWeightDesc(got)
		want := oracleAbove2(items, q, tau)
		if len(got) != len(want) {
			t.Fatalf("q=%+v tau=%v: got %d, want %d", q, tau, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("item %d = %v, want %v", i, got[i].Weight, want[i].Weight)
			}
		}
	}
	// Weight exactly at τ is included (≥ semantics).
	sorted := append([]core.Item[Pt2](nil), items...)
	core.SortByWeightDesc(sorted)
	all := Halfplane{A: 1, B: 0, C: math.Inf(-1)}
	count := 0
	p.ReportAbove(nil, all, sorted[5].Weight, func(core.Item[Pt2]) bool { count++; return true })
	if count != 6 {
		t.Fatalf("tau at rank-6 weight reported %d, want 6", count)
	}
}

func TestPrioritized2DRejectsDuplicates(t *testing.T) {
	items := []core.Item[Pt2]{{Value: Pt2{1, 1}, Weight: 5}, {Value: Pt2{2, 2}, Weight: 5}}
	if _, err := NewPrioritized(items, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
	if _, err := NewMax(items, nil); err == nil {
		t.Fatal("duplicate weights accepted by NewMax")
	}
}

func genPointsN(g *wrand.RNG, n, d int) []core.Item[PtN] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[PtN], n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = g.NormFloat64() * 10
		}
		items[i] = core.Item[PtN]{Value: PtN{C: c}, Weight: ws[i]}
	}
	return items
}

func randHalfspace(g *wrand.RNG, d int) Halfspace {
	a := make([]float64, d)
	norm := 0.0
	for i := range a {
		a[i] = g.NormFloat64()
		norm += a[i] * a[i]
	}
	norm = math.Sqrt(norm)
	for i := range a {
		a[i] /= norm
	}
	return Halfspace{A: a, C: g.NormFloat64() * 10}
}

func oracleAboveN(items []core.Item[PtN], q Halfspace, tau float64) []core.Item[PtN] {
	var out []core.Item[PtN]
	for _, it := range items {
		if it.Weight >= tau && q.Contains(it.Value) {
			out = append(out, it)
		}
	}
	core.SortByWeightDesc(out)
	return out
}

func TestKDTreeAgainstOracle(t *testing.T) {
	g := wrand.New(6)
	for _, d := range []int{2, 4, 5} {
		items := genPointsN(g, 800, d)
		kd, err := NewKDTree(items, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kd.N() != 800 {
			t.Fatalf("N = %d", kd.N())
		}
		for trial := 0; trial < 60; trial++ {
			q := randHalfspace(g, d)
			tau := g.Float64() * 1.2e6
			var got []core.Item[PtN]
			kd.ReportAbove(nil, q, tau, func(it core.Item[PtN]) bool {
				got = append(got, it)
				return true
			})
			core.SortByWeightDesc(got)
			want := oracleAboveN(items, q, tau)
			if len(got) != len(want) {
				t.Fatalf("d=%d q=%+v tau=%v: got %d, want %d", d, q, tau, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i].Weight {
					t.Fatalf("d=%d: item %d = %v, want %v", d, i, got[i].Weight, want[i].Weight)
				}
			}
			gm, gok := kd.MaxItem(nil, q)
			wantAll := oracleAboveN(items, q, math.Inf(-1))
			if len(wantAll) == 0 {
				if gok {
					t.Fatalf("d=%d: max %v in empty halfspace", d, gm.Weight)
				}
			} else if !gok || gm.Weight != wantAll[0].Weight {
				t.Fatalf("d=%d: max (%v,%v), want %v", d, gm.Weight, gok, wantAll[0].Weight)
			}
		}
	}
}

func TestKDTreeValidation(t *testing.T) {
	bad := []core.Item[PtN]{{Value: PtN{C: []float64{1, 2}}, Weight: 1}}
	if _, err := NewKDTree(bad, 3, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	dup := []core.Item[PtN]{
		{Value: PtN{C: []float64{1, 2, 3}}, Weight: 5},
		{Value: PtN{C: []float64{4, 5, 6}}, Weight: 5},
	}
	if _, err := NewKDTree(dup, 3, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
	if _, err := NewKDTree(nil, 0, nil); err == nil {
		t.Fatal("dimension 0 accepted")
	}
	empty, err := NewKDTree(nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := empty.MaxItem(nil, Halfspace{A: []float64{1, 0, 0}, C: 0}); ok {
		t.Fatal("empty kd-tree found a max")
	}
}

func TestKDTreeEarlyStop(t *testing.T) {
	g := wrand.New(7)
	items := genPointsN(g, 400, 4)
	kd, _ := NewKDTree(items, 4, nil)
	all := Halfspace{A: []float64{1, 0, 0, 0}, C: math.Inf(-1)}
	count := 0
	kd.ReportAbove(nil, all, math.Inf(-1), func(core.Item[PtN]) bool {
		count++
		return count < 9
	})
	if count != 9 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestKDTreeSublinearVisits(t *testing.T) {
	// The kd-tree's query term should grow clearly sublinearly in n.
	g := wrand.New(8)
	visitsAt := func(n int) float64 {
		items := genPointsN(g, n, 4)
		// B=2 makes PathCost charge ~visited/2 reads, a faithful proxy for
		// the node-visit count (no longer a readable field since queries
		// keep their scratch state on the stack).
		tr := em.NewTracker(em.Config{B: 2, MemBlocks: 2})
		kd, _ := NewKDTree(items, 4, tr)
		tr.ResetCounters()
		var total int64
		const queries = 30
		for i := 0; i < queries; i++ {
			q := randHalfspace(g, 4)
			q.C = math.Abs(q.C) + 25 // far halfspace: few/no results, pure search cost
			before := tr.Stats().Reads
			kd.ReportAbove(nil, q, math.Inf(1), func(core.Item[PtN]) bool { return true })
			total += tr.Stats().Reads - before
		}
		return float64(total) / queries
	}
	v1 := visitsAt(2000)
	v2 := visitsAt(16000)
	// 8x the input: linear behavior would be ~8x the visits; n^(3/4)
	// predicts ~4.8x. Require clearly sublinear.
	if v2 > 6.5*v1 {
		t.Errorf("visits grew %.0f -> %.0f (x%.1f) for 8x input; not sublinear", v1, v2, v2/v1)
	}
}

func TestPrioritized2DIOCharging(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	g := wrand.New(9)
	items := genPoints2(g, 1<<11)
	p, err := NewPrioritized(items, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	count := 0
	p.ReportAbove(nil, randHalfplane(g), math.Inf(-1), func(core.Item[Pt2]) bool { count++; return true })
	if ios := tr.Stats().IOs(); count > 0 && ios == 0 {
		t.Fatal("query charged no I/Os")
	}
}
