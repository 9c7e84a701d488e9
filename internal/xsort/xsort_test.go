package xsort

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func lessDesc(a, b float64) bool { return a > b } // "best" = largest

func TestSelectTopKSmallCases(t *testing.T) {
	cases := []struct {
		in   []float64
		k    int
		want []float64
	}{
		{nil, 3, nil},
		{[]float64{5}, 0, nil},
		{[]float64{5}, 1, []float64{5}},
		{[]float64{1, 2, 3}, 2, []float64{3, 2}},
		{[]float64{3, 1, 2}, 5, []float64{3, 2, 1}},
		{[]float64{2, 2, 2, 1}, 2, []float64{2, 2}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		got := SelectTopK(in, c.k, lessDesc)
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))
		if len(got) != len(c.want) {
			t.Errorf("SelectTopK(%v, %d) returned %v, want %v", c.in, c.k, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SelectTopK(%v, %d) returned %v, want %v", c.in, c.k, got, c.want)
				break
			}
		}
	}
}

// Property: SelectTopK returns exactly the k largest values (as a multiset).
func TestSelectTopKProperty(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		k := int(kRaw) % (len(vals) + 1)
		in := append([]float64(nil), vals...)
		got := append([]float64(nil), SelectTopK(in, k, lessDesc)...)
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))

		want := append([]float64(nil), vals...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if k > len(want) {
			k = len(want)
		}
		want = want[:k]
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSelectTopKPreservesMultiset(t *testing.T) {
	f := func(vals []float64, kRaw uint8) bool {
		k := int(kRaw) % (len(vals) + 1)
		in := append([]float64(nil), vals...)
		SelectTopK(in, k, lessDesc)
		a := append([]float64(nil), vals...)
		b := append([]float64(nil), in...)
		sort.Float64s(a)
		sort.Float64s(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sortTake is the oracle the collector is checked against: the k best of
// vals, best-first, from a sorted copy.
func sortTake(vals []float64, k int) []float64 {
	want := append([]float64(nil), vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	return want[:min(max(k, 0), len(want))]
}

// collect streams vals through a k-collector, failing t if its buffer
// ever holds room for more than 2k elements, and returns its items.
func collect(t testing.TB, vals []float64, k int) []float64 {
	c := NewCollector(k, lessDesc)
	for _, v := range vals {
		c.Offer(v)
		if c != nil && cap(c.buf) > 2*k {
			t.Fatalf("k=%d: buffer capacity %d exceeds 2k", k, cap(c.buf))
		}
	}
	return c.Items()
}

func TestCollectorBasics(t *testing.T) {
	got := collect(t, []float64{4, 1, 7, 3, 9, 2}, 3)
	if want := []float64{9, 7, 4}; !slices.Equal(got, want) {
		t.Fatalf("Items = %v, want %v", got, want)
	}
}

func TestCollectorZeroK(t *testing.T) {
	c := NewCollector(0, lessDesc)
	c.Offer(5)
	if got := c.Items(); len(got) != 0 {
		t.Fatalf("k=0 collector Items = %v", got)
	}
}

// TestCollectorStreamOrders checks the collector against sort-and-take on
// the arrival orders that stress it differently: ascending (every offer
// beats the cut, so the buffer compacts every k offers), descending (the
// first cut rejects everything after it), shuffled, and duplicate-heavy
// (ties at the cut), at lengths around k and 2k.
func TestCollectorStreamOrders(t *testing.T) {
	g := rand.New(rand.NewPCG(5, 6))
	orders := map[string]func(n int) []float64{
		"ascending": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(i)
			}
			return s
		},
		"descending": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(n - i)
			}
			return s
		},
		"shuffled": func(n int) []float64 {
			s := make([]float64, n)
			for i, j := range g.Perm(n) {
				s[i] = float64(j)
			}
			return s
		},
		"duplicates": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(g.IntN(3))
			}
			return s
		},
	}
	for name, gen := range orders {
		for _, k := range []int{0, 1, 2, 7, 64} {
			for _, n := range []int{k - 1, k, k + 1, 2*k - 1, 2 * k, 2*k + 1, 5*k + 3} {
				if n < 0 {
					continue
				}
				vals := gen(n)
				if got, want := collect(t, vals, k), sortTake(vals, k); !slices.Equal(got, want) {
					t.Fatalf("%s k=%d n=%d: collector %v, want %v", name, k, n, got, want)
				}
			}
		}
	}
}

func TestCollectorMatchesSort(t *testing.T) {
	g := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		n := g.IntN(500)
		k := g.IntN(20) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = g.Float64()
		}
		if got, want := collect(t, vals, k), sortTake(vals, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d: collector %v, want %v", trial, got, want)
		}
	}
}

// FuzzCollector diffs the collector against sort-and-take on an arbitrary
// stream: each byte of data is one value, so ties are common, and k
// ranges over 0..255.
func FuzzCollector(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}, uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		vals := make([]float64, len(data))
		for i, b := range data {
			vals[i] = float64(b)
		}
		k := int(kRaw)
		if got, want := collect(t, vals, k), sortTake(vals, k); !slices.Equal(got, want) {
			t.Fatalf("k=%d over %v: collector %v, want %v", k, vals, got, want)
		}
	})
}

func TestSortPrefix(t *testing.T) {
	s := []float64{2, 9, 4, 7, 1}
	SelectTopK(s, 3, lessDesc)
	SortPrefix(s, 3, lessDesc)
	want := []float64{9, 7, 4}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("prefix = %v, want %v", s[:3], want)
		}
	}
	SortPrefix(s, 99, lessDesc) // k > len must not panic
}

func BenchmarkSelectTopK(b *testing.B) {
	g := rand.New(rand.NewPCG(9, 9))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = g.Float64()
	}
	buf := make([]float64, len(vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, vals)
		SelectTopK(buf, 100, lessDesc)
	}
}
