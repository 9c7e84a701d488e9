package rangerep

import (
	"math"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/wrand"
)

// visitCounter is the prioritized structure the Theorem 2 reduction
// queries, counting the search-tree nodes each ReportAbove enters and
// checking the per-call bound.
type visitCounter struct {
	t              *testing.T
	p              *Points
	height         int
	visits, output int
}

func (c *visitCounter) ReportAbove(v *em.QueryView, q Span, tau float64, emit func(core.Item[float64]) bool) {
	emitted := 0
	n := c.p.reportAbove(v, q, tau, func(it core.Item[float64]) bool {
		emitted++
		return emit(it)
	})
	// One search tree, one skeleton node. A range walk follows one search
	// path down to depth d, where a split falls inside the range, then two
	// paths below it: at most (d+1) + 2·(h−d−1) ≤ 2·h path nodes for
	// height h, at most 2·h whole-subtree roots started from the two lower
	// paths, and inside those subtrees only children of reported nodes
	// (see pst's TestReportVisitBound): visits ≤ 2·emitted + 4·height.
	if bound := 2*emitted + 4*c.height; n > bound {
		c.t.Fatalf("q=%v tau=%v: %d visits for %d reported; bound %d", q, tau, n, emitted, bound)
	}
	c.visits += n
	c.output += emitted
}

// TestReportVisitsPerItem pins the search-tree work behind the charge on
// the registry's range workload under Theorem 2 with k = 10: every call
// meets the bound above, and the visits per reported item at n = 2^18
// stay within 1.5× those at n = 2^12.
func TestReportVisitsPerItem(t *testing.T) {
	var perItem []float64
	for _, lg := range []int{12, 14, 16, 18} {
		n := 1 << lg
		g := wrand.New(42)
		items := genPoints(g, n)
		c := &visitCounter{t: t}
		pri := func(d []core.Item[float64]) core.Prioritized[Span, float64] {
			p, err := NewPoints(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.p, c.height = p, p.tr.Height()
			return c
		}
		e, err := core.NewExpected(items, Match, pri, NewMaxFactory(nil), core.ExpectedOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			a, b := g.Float64()*100, g.Float64()*100
			e.TopK(nil, Span{Lo: min(a, b), Hi: max(a, b)}, 10)
		}
		if c.output == 0 {
			t.Fatalf("n=2^%d: no item reported", lg)
		}
		perItem = append(perItem, float64(c.visits)/float64(c.output))
		t.Logf("n=2^%d: %.3f visits per reported item (%d visits, %d reported; height %d)",
			lg, perItem[len(perItem)-1], c.visits, c.output, c.height)
	}
	if first, last := perItem[0], perItem[len(perItem)-1]; last > 1.5*first || math.IsNaN(last) {
		t.Fatalf("visits per reported item grew %.3f → %.3f from n = 2^12 to 2^18 (more than 1.5×)", first, last)
	}
}
