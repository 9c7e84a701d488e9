package interval

import (
	"fmt"
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
	tree           *Tree[Interval]
	depth, height  int // skeleton depth; tallest search tree at any node
	visits, output int
}

func (c *visitCounter) ReportAbove(v *em.QueryView, q float64, tau float64, emit func(core.Item[Interval]) bool) {
	emitted := 0
	n := c.tree.reportAbove(v, q, tau, func(it core.Item[Interval]) bool {
		emitted++
		return emit(it)
	})
	// A query walks at most depth skeleton nodes and runs one search-tree
	// walk at each. A prefix or suffix walk enters at most 2·t + 2·h
	// nodes for t reported and height h (see pst's TestReportVisitBound:
	// h path nodes, at most h whole-subtree roots, and inside those
	// subtrees only children of reported nodes), and the walk at a node
	// whose center is q enters at most 1 + 2·t. Summed over the path:
	// visits ≤ 2·emitted + 2·depth·height.
	if bound := 2*emitted + 2*c.depth*c.height; n > bound {
		c.t.Fatalf("q=%v tau=%v: %d visits for %d reported; bound %d", q, tau, n, emitted, bound)
	}
	c.visits += n
	c.output += emitted
}

// maxHeldHeight is the tallest search tree held at any skeleton node.
func maxHeldHeight(nd *tnode[Interval]) int {
	if nd == nil {
		return 0
	}
	h := max(maxHeldHeight(nd.left), maxHeldHeight(nd.right))
	if nd.held != nil {
		h = max(h, nd.held.byLo.Height(), nd.held.byHi.Height())
	}
	return h
}

// TestReportVisitsPerItem pins the search-tree work behind the charge on
// the workload the serving benchmark runs (the registry's intervals,
// Theorem 2, k = 10): every call meets the bound above, and the visits
// per reported item at n = 2^18 stay within 1.5× those at n = 2^12. The
// charge is O(log_B n + t/B) I/Os; a walk that entered every subtree
// whose maximum clears τ would pay O(log n) nodes per reported item, and
// its ratio would grow with n.
func TestReportVisitsPerItem(t *testing.T) {
	var perItem []float64
	for _, lg := range []int{12, 14, 16, 18} {
		n := 1 << lg
		g := wrand.New(42)
		ws := g.UniqueFloats(n, 1e6)
		items := make([]core.Item[Interval], n)
		for i := range items {
			lo := g.Float64() * 100
			items[i] = core.Item[Interval]{Value: Interval{Lo: lo, Hi: lo + g.ExpFloat64()*5}, Weight: ws[i]}
		}
		c := &visitCounter{t: t}
		pri := func(d []core.Item[Interval]) core.Prioritized[float64, Interval] {
			tree, err := NewTree(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.tree, c.depth, c.height = tree, tree.Depth(), maxHeldHeight(tree.root)
			return c
		}
		e, err := core.NewExpected(items, Match[Interval], pri, NewMaxFactory[Interval](nil), core.ExpectedOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			e.TopK(nil, g.Float64()*100, 10)
		}
		if c.output == 0 {
			t.Fatalf("n=2^%d: no item reported", lg)
		}
		perItem = append(perItem, float64(c.visits)/float64(c.output))
		t.Logf("n=2^%d: %.3f visits per reported item (%d visits, %d reported; skeleton depth %d, tallest tree %d)",
			lg, perItem[len(perItem)-1], c.visits, c.output, c.depth, c.height)
	}
	if first, last := perItem[0], perItem[len(perItem)-1]; last > 1.5*first || math.IsNaN(last) {
		t.Fatalf("visits per reported item grew %.3f → %.3f from n = 2^12 to 2^18 (more than 1.5×)", first, last)
	}
}

// BenchmarkTreeInsertDelete times one insert plus one delete on a tree of
// n intervals held at steady size: each op inserts a fresh interval and
// deletes the oldest, so skeleton rebuilds (every n/2 updates) are
// amortized into ns/op.
func BenchmarkTreeInsertDelete(b *testing.B) {
	for _, lg := range []int{12, 16} {
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			n := 1 << lg
			g := wrand.New(42)
			items := genIntervals(g, n)
			tree, err := NewTree(items, nil)
			if err != nil {
				b.Fatal(err)
			}
			fresh := genIntervals(wrand.New(43), n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := fresh[i%n]
				it.Weight = 2e6 + float64(i)
				tree.Insert(it)
				old := 2e6 + float64(i-n)
				if i < n {
					old = items[i].Weight
				}
				if !tree.DeleteWeight(old) {
					b.Fatalf("delete of weight %v failed", old)
				}
			}
		})
	}
}
