package core

import (
	"math"
	"slices"
	"testing"

	"topk/internal/em"
	"topk/internal/wrand"
)

// Test problem: elements are points on the real line, predicates are
// closed ranges [Lo, Hi]. This is 1D range reporting — simple enough for a
// transparent oracle, rich enough to exercise every reduction path.

type span struct{ Lo, Hi float64 }

func spanMatch(q span, x float64) bool { return x >= q.Lo && x <= q.Hi }

// genItems returns n points uniform in [0, 100) with distinct weights.
func genItems(g *wrand.RNG, n int) []Item[float64] {
	ws := g.UniqueFloats(n, 1000)
	items := make([]Item[float64], n)
	for i := range items {
		items[i] = Item[float64]{Value: g.Float64() * 100, Weight: ws[i]}
	}
	return items
}

// naive is a correct, updatable prioritized+max structure used as the
// plugged-in black box in reduction tests.
type naive struct {
	items []Item[float64]
	pos   map[float64]int
}

func newNaive(items []Item[float64]) *naive {
	n := &naive{items: append([]Item[float64](nil), items...), pos: map[float64]int{}}
	for i, it := range n.items {
		n.pos[it.Weight] = i
	}
	return n
}

func (n *naive) ReportAbove(_ *em.QueryView, q span, tau float64, emit func(Item[float64]) bool) {
	for _, it := range n.items {
		if it.Weight >= tau && spanMatch(q, it.Value) {
			if !emit(it) {
				return
			}
		}
	}
}

func (n *naive) MaxItem(_ *em.QueryView, q span) (Item[float64], bool) {
	best, ok := Item[float64]{Weight: math.Inf(-1)}, false
	for _, it := range n.items {
		if spanMatch(q, it.Value) && it.Weight > best.Weight {
			best, ok = it, true
		}
	}
	return best, ok
}

func (n *naive) Insert(it Item[float64]) {
	n.pos[it.Weight] = len(n.items)
	n.items = append(n.items, it)
}

func (n *naive) DeleteWeight(w float64) bool {
	i, ok := n.pos[w]
	if !ok {
		return false
	}
	last := len(n.items) - 1
	n.items[i] = n.items[last]
	n.pos[n.items[i].Weight] = i
	n.items = n.items[:last]
	delete(n.pos, w)
	return true
}

// oracleTopK computes ground truth by full scan.
func oracleTopK(items []Item[float64], q span, k int) []Item[float64] {
	var hit []Item[float64]
	for _, it := range items {
		if spanMatch(q, it.Value) {
			hit = append(hit, it)
		}
	}
	return TopKOf(hit, k)
}

func sameItems(t *testing.T, got, want []Item[float64], ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d items, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Weight != want[i].Weight || got[i].Value != want[i].Value {
			t.Fatalf("%s: item %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

func TestCollectAtMost(t *testing.T) {
	items := []Item[float64]{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	p := newNaive(items)
	q := span{0, 100}

	got, complete := CollectAtMost[span, float64](nil, p, q, math.Inf(-1), 10)
	if !complete || len(got) != 4 {
		t.Fatalf("uncapped: complete=%v len=%d, want true,4", complete, len(got))
	}
	got, complete = CollectAtMost[span, float64](nil, p, q, math.Inf(-1), 3)
	if complete || len(got) != 4 {
		t.Fatalf("capped at 3: complete=%v len=%d, want false,4 (limit+1 collected)", complete, len(got))
	}
	got, complete = CollectAtMost[span, float64](nil, p, q, 25, 10)
	if !complete || len(got) != 2 {
		t.Fatalf("tau=25: complete=%v len=%d, want true,2", complete, len(got))
	}
	got, complete = CollectAtMost[span, float64](nil, p, q, math.Inf(-1), 4)
	if !complete || len(got) != 4 {
		t.Fatalf("limit=n: complete=%v len=%d, want true,4", complete, len(got))
	}
}

// TestCollectTop pins the cost monitor's boundaries: a stream of exactly
// limit items completes, limit+1 aborts after counting the extra item and
// returns no items, and the kept items are the want heaviest, also when
// want exceeds what the limit lets through.
func TestCollectTop(t *testing.T) {
	items := []Item[float64]{{1, 10}, {2, 40}, {3, 20}, {4, 30}}
	p := newNaive(items)
	q := span{0, 100}
	weights := func(top []Item[float64]) []float64 {
		var ws []float64
		for _, it := range top {
			ws = append(ws, it.Weight)
		}
		return ws
	}
	cases := []struct {
		tau         float64
		limit, want int
		n           int
		complete    bool
		top         []float64
	}{
		{math.Inf(-1), 4, 2, 4, true, []float64{40, 30}},         // exactly limit
		{math.Inf(-1), 3, 2, 4, false, nil},                      // limit+1: abort
		{math.Inf(-1), 0, 0, 1, false, nil},                      // count-only abort
		{math.Inf(-1), 5, 9, 4, true, []float64{40, 30, 20, 10}}, // want > limit+1
		{25, 2, 9, 2, true, []float64{40, 30}},                   // τ-cut, exactly limit
		{25, 1, 1, 2, false, nil},                                // τ-cut, limit+1
		{50, 0, 3, 0, true, nil},                                 // empty stream
	}
	for _, c := range cases {
		top, n, complete := CollectTop[span, float64](nil, p, q, c.tau, c.limit, c.want)
		if n != c.n || complete != c.complete || !slices.Equal(weights(top), c.top) {
			t.Errorf("CollectTop(τ=%v, limit=%d, want=%d) = %v, %d, %v; want %v, %d, %v",
				c.tau, c.limit, c.want, weights(top), n, complete, c.top, c.n, c.complete)
		}
	}
}

func TestTopKOf(t *testing.T) {
	items := []Item[float64]{{1, 10}, {2, 40}, {3, 20}, {4, 30}}
	got := TopKOf(append([]Item[float64](nil), items...), 2)
	if len(got) != 2 || got[0].Weight != 40 || got[1].Weight != 30 {
		t.Fatalf("TopKOf k=2 = %+v", got)
	}
	got = TopKOf(append([]Item[float64](nil), items...), 99)
	if len(got) != 4 || got[0].Weight != 40 || got[3].Weight != 10 {
		t.Fatalf("TopKOf k=99 = %+v", got)
	}
	if got := TopKOf(append([]Item[float64](nil), items...), 0); len(got) != 0 {
		t.Fatalf("TopKOf k=0 = %+v", got)
	}
}

func TestLogB(t *testing.T) {
	if got := LogB(64, 64); got != 1 {
		t.Errorf("LogB(64,64) = %v, want 1", got)
	}
	if got := LogB(64*64, 64); math.Abs(got-2) > 1e-12 {
		t.Errorf("LogB(64^2,64) = %v, want 2", got)
	}
	if got := LogB(2, 64); got != 1 {
		t.Errorf("LogB(2,64) = %v, want clamp to 1", got)
	}
	if got := LogB(0, 64); got != 1 {
		t.Errorf("LogB(0,64) = %v, want 1", got)
	}
}

func TestCheckDistinctWeights(t *testing.T) {
	if _, ok := CheckDistinctWeights([]Item[int]{{1, 1}, {2, 2}}); !ok {
		t.Error("distinct weights flagged as duplicate")
	}
	if dup, ok := CheckDistinctWeights([]Item[int]{{1, 5}, {2, 5}}); ok || dup != 5 {
		t.Errorf("duplicate weight not detected: dup=%v ok=%v", dup, ok)
	}
	if _, ok := CheckDistinctWeights([]Item[int]{}); !ok {
		t.Error("empty set flagged as duplicate")
	}
}

func TestSortByWeightDesc(t *testing.T) {
	items := []Item[float64]{{1, 10}, {2, 40}, {3, 20}}
	SortByWeightDesc(items)
	if items[0].Weight != 40 || items[1].Weight != 20 || items[2].Weight != 10 {
		t.Fatalf("sorted = %+v", items)
	}
}
