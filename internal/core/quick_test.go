package core

import (
	"testing"
	"testing/quick"

	"topk/internal/wrand"
)

// Property test for the dynamic Theorem 2 pipeline: arbitrary interleaved
// insert/delete/query sequences must always agree with a brute-force
// oracle. This complements the targeted churn tests with
// adversarially-shaped op sequences from testing/quick.
func TestQuickDynamicExpectedAgainstOracle(t *testing.T) {
	type op struct {
		Kind uint8 // 0 insert, 1 delete, 2 query
		A, B uint8
	}
	f := func(ops []op, seed uint16) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		g := wrand.New(uint64(seed) + 1)
		start := genItems(g, 60)
		exp, err := NewDynamicExpected(start, spanMatch,
			func(items []Item[float64]) DynamicPrioritized[span, float64] { return newNaive(items) },
			func(items []Item[float64]) DynamicMax[span, float64] { return newNaive(items) },
			ExpectedOptions{B: 2, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		live := append([]Item[float64](nil), start...)
		nextW := 1e7
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0:
				it := Item[float64]{Value: float64(o.A) / 2.56, Weight: nextW}
				nextW++
				if err := exp.Insert(it); err != nil {
					return false
				}
				live = append(live, it)
			case 1:
				if len(live) == 0 {
					continue
				}
				idx := int(o.A) % len(live)
				if !exp.DeleteWeight(live[idx].Weight) {
					return false
				}
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2:
				lo := float64(o.A) / 2.56
				q := span{lo, lo + float64(o.B)/4}
				k := 1 + int(o.B)%20
				got := exp.TopK(nil, q, k)
				want := oracleTopK(append([]Item[float64](nil), live...), q, k)
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i].Weight != want[i].Weight {
						return false
					}
				}
			}
		}
		return exp.N() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: for any k and τ derived from the true results, the Theorem 1
// structure's top-k is the prefix of the prioritized answer — the
// equivalence the paper's reductions formalize.
func TestQuickWorstCasePrefixProperty(t *testing.T) {
	g := wrand.New(7777)
	items := genItems(g, 4000)
	wc, err := NewWorstCase(items, spanMatch, naiveFactory, WorstCaseOptions{B: 2, Lambda: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := func(loRaw, widthRaw uint8, kRaw uint16) bool {
		lo := float64(loRaw) / 2.56
		q := span{lo, lo + float64(widthRaw)/8}
		k := 1 + int(kRaw)%300
		top := wc.TopK(nil, q, k)
		// Every reported item must satisfy the predicate and the list
		// must be strictly descending.
		for i, it := range top {
			if !spanMatch(q, it.Value) {
				return false
			}
			if i > 0 && top[i-1].Weight <= it.Weight {
				return false
			}
		}
		// The k-th weight is a valid prioritized threshold: querying at
		// τ = weight of the last item returns exactly the same set.
		if len(top) == 0 {
			return len(oracleTopK(items, q, k)) == 0
		}
		tau := top[len(top)-1].Weight
		want := oracleAboveSpan(items, q, tau)
		return len(want) == len(top)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func oracleAboveSpan(items []Item[float64], q span, tau float64) []Item[float64] {
	var out []Item[float64]
	for _, it := range items {
		if it.Weight >= tau && spanMatch(q, it.Value) {
			out = append(out, it)
		}
	}
	return out
}
