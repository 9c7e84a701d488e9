package core

import (
	"testing"

	"topk/internal/wrand"
)

func naiveMaxFactory(items []Item[float64]) Max[span, float64] {
	return newNaive(items)
}

func naiveDynPriFactory(items []Item[float64]) DynamicPrioritized[span, float64] {
	return newNaive(items)
}

func naiveDynMaxFactory(items []Item[float64]) DynamicMax[span, float64] {
	return newNaive(items)
}

func buildExp(t *testing.T, g *wrand.RNG, n int, opts ExpectedOptions) (*Expected[span, float64], []Item[float64]) {
	t.Helper()
	items := genItems(g, n)
	e, err := NewExpected(items, spanMatch, naiveFactory, naiveMaxFactory, opts)
	if err != nil {
		t.Fatalf("NewExpected: %v", err)
	}
	return e, items
}

func TestExpectedMatchesOracle(t *testing.T) {
	g := wrand.New(21)
	e, items := buildExp(t, g, 6000, ExpectedOptions{B: 2, Seed: 17})
	for trial := 0; trial < 60; trial++ {
		lo := g.Float64() * 100
		q := span{lo, lo + g.Float64()*60}
		for _, k := range []int{1, 2, 7, 64, 500, 3000, 6000, 9000} {
			got := e.TopK(nil, q, k)
			want := oracleTopK(items, q, k)
			sameItems(t, got, want, "expected topk")
		}
	}
}

func TestExpectedLadderShape(t *testing.T) {
	g := wrand.New(22)
	e, _ := buildExp(t, g, 50000, ExpectedOptions{B: 8, Seed: 3})
	st := e.Stats()
	if st.LadderLevels < 2 {
		t.Fatalf("ladder has %d levels; want a geometric ladder", st.LadderLevels)
	}
	// K_i grows by (1+σ): sample sizes shrink geometrically, so the total
	// sampled items should be a modest multiple of n/K_1 = n/(B·Q_max).
	kmin := e.kMin(50000)
	budget := int(1.0/DefaultSigma+1) * int(float64(50000)/kmin+1) * 3
	if st.SampledItems > budget {
		t.Errorf("sample ladder holds %d items, budget %d", st.SampledItems, budget)
	}
}

func TestExpectedEmptyAndEdge(t *testing.T) {
	g := wrand.New(23)
	e, items := buildExp(t, g, 800, ExpectedOptions{B: 2, Seed: 5})
	if got := e.TopK(nil, span{500, 600}, 5); len(got) != 0 {
		t.Fatalf("empty-range query returned %d items", len(got))
	}
	if got := e.TopK(nil, span{0, 100}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	got := e.TopK(nil, span{0, 100}, len(items)*2)
	if len(got) != len(items) {
		t.Fatalf("k≫n returned %d, want %d", len(got), len(items))
	}
}

func TestExpectedRejectsDuplicateWeights(t *testing.T) {
	items := []Item[float64]{{1, 5}, {2, 5}}
	if _, err := NewExpected(items, spanMatch, naiveFactory, naiveMaxFactory, ExpectedOptions{}); err == nil {
		t.Fatal("duplicate weights accepted")
	}
}

func TestExpectedStaticPanicsOnUpdate(t *testing.T) {
	g := wrand.New(24)
	e, _ := buildExp(t, g, 100, ExpectedOptions{B: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Insert on static structure did not panic")
		}
	}()
	_ = e.Insert(Item[float64]{Value: 1, Weight: 123456})
}

func TestDynamicExpectedInsertDelete(t *testing.T) {
	g := wrand.New(25)
	items := genItems(g, 2000)
	e, err := NewDynamicExpected(items, spanMatch, naiveDynPriFactory, naiveDynMaxFactory,
		ExpectedOptions{B: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	live := append([]Item[float64](nil), items...)

	check := func(ctx string) {
		t.Helper()
		for trial := 0; trial < 10; trial++ {
			lo := g.Float64() * 100
			q := span{lo, lo + g.Float64()*50}
			for _, k := range []int{1, 10, 300} {
				sameItems(t, e.TopK(nil, q, k), oracleTopK(live, q, k), ctx)
			}
		}
	}

	check("initial")

	// Interleave inserts and deletes.
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			it := Item[float64]{Value: g.Float64() * 100, Weight: 1000 + g.Float64()*1000}
			if err := e.Insert(it); err != nil {
				continue // rare duplicate weight collision; skip
			}
			live = append(live, it)
		}
		for i := 0; i < 150; i++ {
			victim := g.IntN(len(live))
			w := live[victim].Weight
			if !e.DeleteWeight(w) {
				t.Fatalf("DeleteWeight(%v) = false for a live item", w)
			}
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		check("after churn round")
	}
	if e.N() != len(live) {
		t.Fatalf("structure size %d, want %d", e.N(), len(live))
	}
}

func TestDynamicExpectedDeleteAbsent(t *testing.T) {
	g := wrand.New(26)
	items := genItems(g, 100)
	e, err := NewDynamicExpected(items, spanMatch, naiveDynPriFactory, naiveDynMaxFactory,
		ExpectedOptions{B: 2, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if e.DeleteWeight(-42) {
		t.Fatal("deleted an absent weight")
	}
	if err := e.Insert(Item[float64]{Value: 1, Weight: items[0].Weight}); err == nil {
		t.Fatal("inserted a duplicate weight without error")
	}
}

func TestDynamicExpectedRebuilds(t *testing.T) {
	g := wrand.New(27)
	items := genItems(g, 200)
	e, err := NewDynamicExpected(items, spanMatch, naiveDynPriFactory, naiveDynMaxFactory,
		ExpectedOptions{B: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w := 10000 + float64(i)
		if err := e.Insert(Item[float64]{Value: g.Float64() * 100, Weight: w}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Rebuilds == 0 {
		t.Error("5x growth triggered no rebuild; ladder parameters now stale")
	}
	// Rebuild must preserve correctness.
	q := span{0, 100}
	got := e.TopK(nil, q, 5)
	if len(got) != 5 || got[0].Weight != 10999 {
		t.Fatalf("post-rebuild top-5 = %+v", got)
	}
}

func TestExpectedRoundHistogram(t *testing.T) {
	g := wrand.New(28)
	e, _ := buildExp(t, g, 30000, ExpectedOptions{B: 2, Seed: 43})
	queries := 0
	for trial := 0; trial < 100; trial++ {
		lo := g.Float64() * 80
		e.TopK(nil, span{lo, lo + 20}, 1+g.IntN(100))
		queries++
	}
	st := e.Stats()
	var hist int64
	for _, c := range st.RoundHist {
		hist += c
	}
	// Every non-scan query must land in exactly one histogram bucket.
	if hist+st.NaiveScans < int64(queries) {
		t.Errorf("round histogram total %d + scans %d < queries %d", hist, st.NaiveScans, queries)
	}
	// Section 4: expected rounds is O(1) (geometric with ratio ≤ 0.91·…).
	if queries > 0 && st.Rounds > 8*int64(queries) {
		t.Errorf("mean rounds per query %.1f; expected a small constant", float64(st.Rounds)/float64(queries))
	}
}
