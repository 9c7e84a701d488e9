package interval

import (
	"math"
	"sort"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

// genIntervals returns n random intervals with distinct weights.
func genIntervals(g *wrand.RNG, n int) []core.Item[Interval] {
	ws := g.UniqueFloats(n, 1e6)
	items := make([]core.Item[Interval], n)
	for i := range items {
		lo := g.Float64() * 100
		items[i] = core.Item[Interval]{
			Value:  Interval{Lo: lo, Hi: lo + g.ExpFloat64()*10},
			Weight: ws[i],
		}
	}
	return items
}

func oracleAbove(items []core.Item[Interval], q, tau float64) []core.Item[Interval] {
	var out []core.Item[Interval]
	for _, it := range items {
		if it.Weight >= tau && it.Value.Contains(q) {
			out = append(out, it)
		}
	}
	core.SortByWeightDesc(out)
	return out
}

func oracleMax(items []core.Item[Interval], q float64) (core.Item[Interval], bool) {
	best, ok := core.Item[Interval]{Weight: math.Inf(-1)}, false
	for _, it := range items {
		if it.Value.Contains(q) && it.Weight > best.Weight {
			best, ok = it, true
		}
	}
	return best, ok
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{2, 5}
	for _, c := range []struct {
		x    float64
		want bool
	}{{2, true}, {5, true}, {3.5, true}, {1.999, false}, {5.001, false}} {
		if got := iv.Contains(c.x); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !(Interval{3, 3}).Valid() {
		t.Error("degenerate point interval should be valid")
	}
	if (Interval{5, 2}).Valid() {
		t.Error("reversed interval should be invalid")
	}
	if (Interval{math.NaN(), 2}).Valid() {
		t.Error("NaN interval should be invalid")
	}
}

func TestTreeReportAboveAgainstOracle(t *testing.T) {
	g := wrand.New(1)
	items := genIntervals(g, 2000)
	tree, err := NewTree(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		q := g.Float64() * 120
		tau := g.Float64() * 1.2e6
		var got []core.Item[Interval]
		tree.ReportAbove(nil, q, tau, func(it core.Item[Interval]) bool {
			got = append(got, it)
			return true
		})
		core.SortByWeightDesc(got)
		want := oracleAbove(items, q, tau)
		if len(got) != len(want) {
			t.Fatalf("q=%v tau=%v: got %d, want %d", q, tau, len(got), len(want))
		}
		for i := range got {
			if got[i].Weight != want[i].Weight {
				t.Fatalf("q=%v tau=%v: item %d weight %v, want %v", q, tau, i, got[i].Weight, want[i].Weight)
			}
		}
	}
}

func TestTreeQueryAtEndpointsAndCenters(t *testing.T) {
	// Exact endpoint coordinates are the classic off-by-one trap for
	// closed intervals; probe every one of them.
	g := wrand.New(2)
	items := genIntervals(g, 300)
	tree, err := NewTree(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		for _, q := range []float64{it.Value.Lo, it.Value.Hi, (it.Value.Lo + it.Value.Hi) / 2} {
			count := 0
			tree.ReportAbove(nil, q, math.Inf(-1), func(core.Item[Interval]) bool {
				count++
				return true
			})
			if want := len(oracleAbove(items, q, math.Inf(-1))); count != want {
				t.Fatalf("q=%v: reported %d, want %d", q, count, want)
			}
		}
	}
}

func TestTreeMaxAgainstOracle(t *testing.T) {
	g := wrand.New(3)
	items := genIntervals(g, 1500)
	tree, err := NewTree(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		q := g.Float64() * 120
		got, gok := tree.MaxItem(nil, q)
		want, wok := oracleMax(items, q)
		if gok != wok {
			t.Fatalf("q=%v: ok=%v, want %v", q, gok, wok)
		}
		if gok && got.Weight != want.Weight {
			t.Fatalf("q=%v: max %v, want %v", q, got.Weight, want.Weight)
		}
	}
}

func TestTreeEarlyStop(t *testing.T) {
	g := wrand.New(4)
	items := genIntervals(g, 500)
	tree, _ := NewTree(items, nil)
	count := 0
	tree.ReportAbove(nil, 50, math.Inf(-1), func(core.Item[Interval]) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("early stop visited %d, want 4", count)
	}
}

func TestTreeInsertDeleteChurn(t *testing.T) {
	g := wrand.New(5)
	items := genIntervals(g, 600)
	tree, err := NewTree(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := append([]core.Item[Interval](nil), items...)

	check := func() {
		t.Helper()
		for trial := 0; trial < 20; trial++ {
			q := g.Float64() * 130
			got, gok := tree.MaxItem(nil, q)
			want, wok := oracleMax(live, q)
			if gok != wok || (gok && got.Weight != want.Weight) {
				t.Fatalf("q=%v: max (%v,%v), want (%v,%v)", q, got.Weight, gok, want.Weight, wok)
			}
			count := 0
			tau := g.Float64() * 1.2e6
			tree.ReportAbove(nil, q, tau, func(it core.Item[Interval]) bool {
				count++
				return true
			})
			if want := len(oracleAbove(live, q, tau)); count != want {
				t.Fatalf("q=%v tau=%v: reported %d, want %d", q, tau, count, want)
			}
		}
	}

	for round := 0; round < 6; round++ {
		// Insert intervals with brand-new coordinates (stressing the
		// rest-list path) and delete random survivors.
		for i := 0; i < 120; i++ {
			lo := g.Float64() * 130
			it := core.Item[Interval]{
				Value:  Interval{Lo: lo, Hi: lo + g.Float64()*0.5},
				Weight: 2e6 + g.Float64()*1e6,
			}
			if _, dup := tree.loc[it.Weight]; dup {
				continue
			}
			tree.Insert(it)
			live = append(live, it)
		}
		for i := 0; i < 100; i++ {
			victim := g.IntN(len(live))
			if !tree.DeleteWeight(live[victim].Weight) {
				t.Fatalf("DeleteWeight failed for live item")
			}
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		check()
	}
	if tree.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(live))
	}
}

func TestTreeDeleteAbsentAndDuplicateInsert(t *testing.T) {
	g := wrand.New(6)
	items := genIntervals(g, 50)
	tree, _ := NewTree(items, nil)
	if tree.DeleteWeight(-1) {
		t.Fatal("deleted an absent weight")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate-weight insert did not panic")
		}
	}()
	tree.Insert(core.Item[Interval]{Value: Interval{0, 1}, Weight: items[0].Weight})
}

func TestTreeRejectsBadInput(t *testing.T) {
	bad := []core.Item[Interval]{{Value: Interval{5, 2}, Weight: 1}}
	if _, err := NewTree(bad, nil); err == nil {
		t.Fatal("reversed interval accepted")
	}
	dup := []core.Item[Interval]{
		{Value: Interval{0, 1}, Weight: 7},
		{Value: Interval{2, 3}, Weight: 7},
	}
	if _, err := NewTree(dup, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
}

func TestTreeEmptyAndSingleton(t *testing.T) {
	tree, err := NewTree[Interval](nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.MaxItem(nil, 5); ok {
		t.Fatal("empty tree found a max")
	}
	tree.Insert(core.Item[Interval]{Value: Interval{1, 3}, Weight: 42})
	if it, ok := tree.MaxItem(nil, 2); !ok || it.Weight != 42 {
		t.Fatalf("singleton MaxItem = %+v,%v", it, ok)
	}
	if _, ok := tree.MaxItem(nil, 9); ok {
		t.Fatal("found max outside the only interval")
	}
}

func TestTreeDepthBalanced(t *testing.T) {
	g := wrand.New(7)
	items := genIntervals(g, 1<<13)
	tree, _ := NewTree(items, nil)
	if d := tree.Depth(); d > 16 {
		t.Fatalf("skeleton depth %d for 2^13 items (2^14 coords); want ~14", d)
	}
}

func TestTreeIOCharging(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 4})
	g := wrand.New(8)
	items := genIntervals(g, 1<<12)
	tree, err := NewTree(items, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	tree.MaxItem(nil, 50)
	maxIOs := tr.Stats().IOs()
	if maxIOs == 0 {
		t.Fatal("MaxItem charged no I/Os")
	}
	// log2(4096) = 12 path nodes, search-tree walks ~12 each; /log2(64)=6
	// should stay well under a linear scan (4096/64 = 64 blocks).
	if maxIOs > 60 {
		t.Errorf("MaxItem charged %d I/Os; suspiciously close to a full scan", maxIOs)
	}

	tr.ResetCounters()
	count := 0
	tree.ReportAbove(nil, 50, math.Inf(-1), func(core.Item[Interval]) bool {
		count++
		return true
	})
	repIOs := tr.Stats().IOs()
	if repIOs == 0 && count > 0 {
		t.Fatal("ReportAbove charged no I/Os despite emitting items")
	}
	if int64(count) > 0 && repIOs > int64(count)+60 {
		t.Errorf("ReportAbove: %d I/Os for %d results; output term should be ~t/B", repIOs, count)
	}
}

func TestStabMax1DAgainstOracle(t *testing.T) {
	g := wrand.New(9)
	items := genIntervals(g, 1200)
	s, err := NewStabMax1D(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Random probes plus every endpoint (closed-boundary behavior).
	probes := make([]float64, 0, 400+2*len(items))
	for i := 0; i < 400; i++ {
		probes = append(probes, g.Float64()*130-5)
	}
	for _, it := range items {
		probes = append(probes, it.Value.Lo, it.Value.Hi)
	}
	for _, q := range probes {
		got, gok := s.MaxItem(nil, q)
		want, wok := oracleMax(items, q)
		if gok != wok {
			t.Fatalf("q=%v: ok=%v, want %v", q, gok, wok)
		}
		if gok && got.Weight != want.Weight {
			t.Fatalf("q=%v: max %v, want %v", q, got.Weight, want.Weight)
		}
	}
}

func TestStabMax1DGapSemantics(t *testing.T) {
	items := []core.Item[Interval]{
		{Value: Interval{1, 2}, Weight: 10},
		{Value: Interval{2, 4}, Weight: 5},
		{Value: Interval{5, 6}, Weight: 7},
	}
	s, err := NewStabMax1D(items, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q      float64
		want   float64
		wantOK bool
	}{
		{0.5, 0, false}, // before everything
		{1, 10, true},   // left endpoint
		{2, 10, true},   // shared endpoint: heavier wins
		{3, 5, true},    // interior
		{4, 5, true},    // right endpoint
		{4.5, 0, false}, // gap between 4 and 5
		{5, 7, true},
		{6, 7, true},
		{6.5, 0, false}, // after everything
	}
	for _, c := range cases {
		got, ok := s.MaxItem(nil, c.q)
		if ok != c.wantOK {
			t.Errorf("q=%v: ok=%v, want %v", c.q, ok, c.wantOK)
			continue
		}
		if ok && got.Weight != c.want {
			t.Errorf("q=%v: weight %v, want %v", c.q, got.Weight, c.want)
		}
	}
}

func TestStabMax1DIOCost(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 2})
	g := wrand.New(10)
	items := genIntervals(g, 1<<14)
	s, err := NewStabMax1D(items, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	tr.ResetCounters()
	s.MaxItem(nil, 50)
	if ios := tr.Stats().IOs(); ios > 6 {
		t.Errorf("MaxItem cost %d I/Os; want O(log_B n) ≈ 3-4", ios)
	}
	s.Free()
}

func TestStabMax1DEmpty(t *testing.T) {
	s, err := NewStabMax1D[Interval](nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.MaxItem(nil, 3); ok {
		t.Fatal("empty structure found a max")
	}
}

func TestFactoriesRoundTrip(t *testing.T) {
	g := wrand.New(11)
	items := genIntervals(g, 400)

	pf := NewPrioritizedFactory[Interval](nil)
	p := pf(items)
	var got []core.Item[Interval]
	p.ReportAbove(nil, 50, math.Inf(-1), func(it core.Item[Interval]) bool {
		got = append(got, it)
		return true
	})
	if want := len(oracleAbove(items, 50, math.Inf(-1))); len(got) != want {
		t.Fatalf("factory prioritized reported %d, want %d", len(got), want)
	}

	mf := NewMaxFactory[Interval](nil)
	m := mf(items)
	gotM, gok := m.MaxItem(nil, 50)
	wantM, wok := oracleMax(items, 50)
	if gok != wok || (gok && gotM.Weight != wantM.Weight) {
		t.Fatalf("factory max = (%v,%v), want (%v,%v)", gotM.Weight, gok, wantM.Weight, wok)
	}

	if !Match(50.0, Interval{40, 60}) || Match(50.0, Interval{51, 60}) {
		t.Fatal("Match predicate wrong")
	}
}

func TestSweepDeterministicOrderIndependence(t *testing.T) {
	g := wrand.New(12)
	items := genIntervals(g, 300)
	shuffled := append([]core.Item[Interval](nil), items...)
	g.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	a, _ := NewStabMax1D(items, nil)
	b, _ := NewStabMax1D(shuffled, nil)
	qs := make([]float64, 0, 100)
	for i := 0; i < 100; i++ {
		qs = append(qs, g.Float64()*130)
	}
	sort.Float64s(qs)
	for _, q := range qs {
		ga, oka := a.MaxItem(nil, q)
		gb, okb := b.MaxItem(nil, q)
		if oka != okb || (oka && ga.Weight != gb.Weight) {
			t.Fatalf("q=%v: order-dependent answers %v/%v vs %v/%v", q, ga.Weight, oka, gb.Weight, okb)
		}
	}
}
