package pst

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"topk/internal/wrand"
)

type entry struct {
	k, w float64
	v    int
}

// genEntries draws n entries with distinct weights. With dups set, keys
// come from 16 values, so most keys are shared by many entries.
func genEntries(g *wrand.RNG, n int, dups bool) []entry {
	ws := g.UniqueFloats(n, 1e6)
	entries := make([]entry, n)
	for i := range entries {
		k := g.Float64() * 100
		if dups {
			k = float64(g.IntN(16)) * 6.25
		}
		entries[i] = entry{k: k, w: ws[i], v: i}
	}
	return entries
}

func bulk(entries []entry) *Tree[int] {
	es := make([]Entry[int], len(entries))
	for i, e := range entries {
		es[i] = Entry[int]{Key: Key{e.k, e.w}, Val: e.v}
	}
	t := Build(es)
	return &t
}

func inserted(entries []entry) *Tree[int] {
	t := &Tree[int]{}
	for _, e := range entries {
		t.Insert(Key{e.k, e.w}, e.v)
	}
	return t
}

// variants returns the trees every oracle test runs against: bulk-built
// and insert-built, over spread-out keys and over heavily duplicated keys.
func variants(t *testing.T, seed uint64, n int) []struct {
	name    string
	tr      *Tree[int]
	entries []entry
} {
	t.Helper()
	g := wrand.New(seed)
	var out []struct {
		name    string
		tr      *Tree[int]
		entries []entry
	}
	for _, dups := range []bool{false, true} {
		entries := genEntries(g, n, dups)
		for _, b := range []struct {
			name string
			tr   *Tree[int]
		}{{"bulk", bulk(entries)}, {"insert", inserted(entries)}} {
			if err := b.tr.CheckInvariants(); err != nil {
				t.Fatalf("%s dups=%v: %v", b.name, dups, err)
			}
			name := b.name
			if dups {
				name += "/dups"
			}
			out = append(out, struct {
				name    string
				tr      *Tree[int]
				entries []entry
			}{name, b.tr, entries})
		}
	}
	return out
}

// get returns the value stored at k.
func get[V any](tr *Tree[V], k Key) (v V, ok bool) {
	if i := tr.find(k); i != none {
		return tr.nodes[i].e.Val, true
	}
	return v, false
}

func TestInsertGetDelete(t *testing.T) {
	tr := &Tree[string]{}
	tr.Insert(Key{1, 10}, "a")
	tr.Insert(Key{2, 20}, "b")
	tr.Insert(Key{1, 30}, "c") // same K, different W: distinct entry

	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if v, ok := get(tr, Key{1, 30}); !ok || v != "c" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if _, ok := get(tr, Key{1, 99}); ok {
		t.Fatal("Get found an absent key")
	}
	if !tr.Delete(Key{1, 10}) {
		t.Fatal("Delete of present key returned false")
	}
	if tr.Delete(Key{1, 10}) {
		t.Fatal("double Delete returned true")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len after delete = %d, want 2", tr.Len())
	}
	for _, k := range []Key{{2, 20}, {1, 30}} {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%v) returned false", k)
		}
	}
	if tr.Len() != 0 || len(tr.nodes) != 0 {
		t.Fatalf("emptied tree: Len %d, %d slots", tr.Len(), len(tr.nodes))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertReplacesValue(t *testing.T) {
	tr := &Tree[string]{}
	tr.Insert(Key{1, 10}, "old")
	tr.Insert(Key{1, 10}, "new")
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", tr.Len())
	}
	if v, _ := get(tr, Key{1, 10}); v != "new" {
		t.Fatalf("Get = %q, want new", v)
	}
}

func TestMax(t *testing.T) {
	tr := &Tree[int]{}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("empty tree reported a max")
	}
	tr.Insert(Key{5, 50}, 0)
	tr.Insert(Key{1, 70}, 1)
	tr.Insert(Key{9, 60}, 2)
	if k, v, ok := tr.Max(); !ok || k.W != 70 || v != 1 {
		t.Fatalf("Max = %v,%v,%v want 70,1,true", k, v, ok)
	}
	tr.Delete(Key{1, 70})
	if k, _, _ := tr.Max(); k.W != 60 {
		t.Fatalf("Max after delete = %v, want 60", k.W)
	}
}

func sortedByW(es []entry) []entry {
	sort.Slice(es, func(i, j int) bool { return es[i].w < es[j].w })
	return es
}

func oracleReport(entries []entry, in func(k float64) bool, tau float64) []entry {
	var out []entry
	for _, e := range entries {
		if in(e.k) && e.w >= tau {
			out = append(out, e)
		}
	}
	return sortedByW(out)
}

func collect(report func(visit func(Key, int) bool) (int, bool)) []entry {
	var got []entry
	report(func(k Key, v int) bool {
		got = append(got, entry{k.K, k.W, v})
		return true
	})
	return sortedByW(got)
}

func sameEntries(t *testing.T, what string, got, want []entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// probeKeys draws query coordinates: random ones, every key present, and
// values just beside the duplicated keys.
func probeKeys(g *wrand.RNG, entries []entry, m int) []float64 {
	xs := []float64{-1, 0, 6.25, 50, 93.75, 100, 200}
	for i := 0; i < m; i++ {
		xs = append(xs, g.Float64()*110-5, entries[g.IntN(len(entries))].k)
	}
	return xs
}

func TestPrefixSuffixReportAboveAgainstOracle(t *testing.T) {
	g := wrand.New(11)
	for _, c := range variants(t, 11, 800) {
		for _, x := range probeKeys(g, c.entries, 50) {
			tau := g.Float64() * 1e6
			if g.IntN(4) == 0 {
				tau = math.Inf(-1)
			}
			got := collect(func(v func(Key, int) bool) (int, bool) { return c.tr.PrefixReportAbove(x, tau, v) })
			want := oracleReport(c.entries, func(k float64) bool { return k <= x }, tau)
			sameEntries(t, c.name+" prefix", got, want)
			got = collect(func(v func(Key, int) bool) (int, bool) { return c.tr.SuffixReportAbove(x, tau, v) })
			want = oracleReport(c.entries, func(k float64) bool { return k >= x }, tau)
			sameEntries(t, c.name+" suffix", got, want)
		}
	}
}

func TestRangeReportAboveAgainstOracle(t *testing.T) {
	g := wrand.New(21)
	for _, c := range variants(t, 21, 700) {
		xs := probeKeys(g, c.entries, 60)
		for i, lo := range xs {
			hi := lo + g.Float64()*40
			if i%3 == 0 {
				hi = xs[g.IntN(len(xs))]
			}
			tau := g.Float64() * 1e6
			got := collect(func(v func(Key, int) bool) (int, bool) { return c.tr.RangeReportAbove(lo, hi, tau, v) })
			want := oracleReport(c.entries, func(k float64) bool { return lo <= k && k <= hi }, tau)
			sameEntries(t, c.name+" range", got, want)
		}
	}
}

func TestReportEarlyStop(t *testing.T) {
	g := wrand.New(12)
	tr := inserted(genEntries(g, 200, false))
	count := 0
	_, complete := tr.PrefixReportAbove(200, math.Inf(-1), func(Key, int) bool {
		count++
		return count < 5
	})
	if complete {
		t.Fatal("early-stopped enumeration reported complete")
	}
	if count != 5 {
		t.Fatalf("visited %d entries, want 5", count)
	}
	count = 0
	if _, complete := tr.SuffixReportAbove(-1, math.Inf(-1), func(Key, int) bool {
		count++
		return count < 3
	}); complete || count != 3 {
		t.Fatalf("suffix early stop: complete=%v count=%d", complete, count)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	g := wrand.New(24)
	tr := bulk(genEntries(g, 300, false))
	count := 0
	_, complete := tr.RangeReportAbove(0, 200, math.Inf(-1), func(Key, int) bool {
		count++
		return count < 6
	})
	if complete || count != 6 {
		t.Fatalf("early stop: complete=%v count=%d", complete, count)
	}
}

func oracleMax(entries []entry, in func(k float64) bool) float64 {
	best := math.Inf(-1)
	for _, e := range entries {
		if in(e.k) && e.w > best {
			best = e.w
		}
	}
	return best
}

func checkMax(t *testing.T, what string, k Key, v int, ok bool, want float64, entries []entry) {
	t.Helper()
	if math.IsInf(want, -1) {
		if ok {
			t.Fatalf("%s: found %v in an empty range", what, k)
		}
		return
	}
	if !ok || k.W != want {
		t.Fatalf("%s = %v,%v want weight %v", what, k.W, ok, want)
	}
	if e := entries[v]; e.k != k.K || e.w != k.W {
		t.Fatalf("%s: value %d belongs to %+v, not %v", what, v, e, k)
	}
}

func TestPrefixSuffixMaxAgainstOracle(t *testing.T) {
	g := wrand.New(13)
	for _, c := range variants(t, 13, 500) {
		for _, x := range probeKeys(g, c.entries, 100) {
			k, v, ok := c.tr.PrefixMax(x)
			checkMax(t, c.name+" PrefixMax", k, v, ok, oracleMax(c.entries, func(k float64) bool { return k <= x }), c.entries)
			k, v, ok = c.tr.SuffixMax(x)
			checkMax(t, c.name+" SuffixMax", k, v, ok, oracleMax(c.entries, func(k float64) bool { return k >= x }), c.entries)
		}
	}
}

func TestRangeMaxAgainstOracle(t *testing.T) {
	g := wrand.New(22)
	for _, c := range variants(t, 22, 600) {
		xs := probeKeys(g, c.entries, 100)
		for i, lo := range xs {
			hi := lo + g.Float64()*30
			if i%3 == 0 {
				hi = xs[g.IntN(len(xs))]
			}
			k, v, ok := c.tr.RangeMax(lo, hi)
			checkMax(t, c.name+" RangeMax", k, v, ok, oracleMax(c.entries, func(k float64) bool { return lo <= k && k <= hi }), c.entries)
		}
	}
}

func TestRangeCountAgainstOracle(t *testing.T) {
	g := wrand.New(23)
	for _, c := range variants(t, 23, 500) {
		xs := probeKeys(g, c.entries, 100)
		for _, lo := range xs {
			hi := lo + g.Float64()*25
			want, wantP, wantS := 0, 0, 0
			for _, e := range c.entries {
				if e.k >= lo && e.k <= hi {
					want++
				}
				if e.k <= lo {
					wantP++
				}
				if e.k >= lo {
					wantS++
				}
			}
			if got := c.tr.RangeCount(lo, hi); got != want {
				t.Fatalf("%s RangeCount(%v,%v) = %d, want %d", c.name, lo, hi, got, want)
			}
			if got := c.tr.PrefixCount(lo); got != wantP {
				t.Fatalf("%s PrefixCount(%v) = %d, want %d", c.name, lo, got, wantP)
			}
			if got := c.tr.SuffixCount(lo); got != wantS {
				t.Fatalf("%s SuffixCount(%v) = %d, want %d", c.name, lo, got, wantS)
			}
		}
	}
}

func TestRangeCountWithDuplicateKeys(t *testing.T) {
	tr := &Tree[int]{}
	// Five entries at K=5 (distinct weights), two elsewhere.
	for i := 0; i < 5; i++ {
		tr.Insert(Key{5, float64(i)}, i)
	}
	tr.Insert(Key{1, 10}, 0)
	tr.Insert(Key{9, 11}, 0)
	if got := tr.RangeCount(5, 5); got != 5 {
		t.Fatalf("RangeCount(5,5) = %d, want 5", got)
	}
	if got := tr.RangeCount(1, 9); got != 7 {
		t.Fatalf("RangeCount(1,9) = %d, want 7", got)
	}
	if got := tr.RangeCount(5.1, 8.9); got != 0 {
		t.Fatalf("RangeCount(5.1,8.9) = %d, want 0", got)
	}
	count := 0
	tr.RangeReportAbove(5, 5, math.Inf(-1), func(Key, int) bool { count++; return true })
	if count != 5 {
		t.Fatalf("RangeReportAbove(5,5) visited %d, want 5", count)
	}
}

func TestAllVisitsEveryEntryOnce(t *testing.T) {
	g := wrand.New(14)
	entries := genEntries(g, 300, true)
	tr := inserted(entries)
	for _, e := range entries[:100] {
		tr.Delete(Key{e.k, e.w})
	}
	seen := map[Key]int{}
	tr.All(func(k Key, v int) bool {
		seen[k]++
		if e := entries[v]; e.k != k.K || e.w != k.W {
			t.Fatalf("All paired %v with value %d of %+v", k, v, e)
		}
		return true
	})
	if len(seen) != 200 {
		t.Fatalf("All visited %d distinct entries, want 200", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("All visited %v %d times", k, c)
		}
	}
}

// maxHeight is the depth bound an insert restores: log_{1/alpha} n levels
// below the root, so at most that plus one levels.
func maxHeight(n int) int {
	return int(math.Log(float64(n))/logInvAlpha) + 1
}

func TestHeightIsLogarithmic(t *testing.T) {
	g := wrand.New(15)
	entries := genEntries(g, 1<<14, false)
	if h := bulk(entries).Height(); h != 15 {
		t.Fatalf("bulk height %d for n=2^14, want ⌈log2(n+1)⌉ = 15", h)
	}
	if h := inserted(entries).Height(); h > maxHeight(1<<14) {
		t.Fatalf("insert-built height %d for n=2^14, bound %d", h, maxHeight(1<<14))
	}
}

// TestDepthUnderSortedKeysRisingWeights inserts keys in ascending order
// with weights rising along them: a Cartesian tree on (key, weight) would
// be a path of n nodes, and a plain search tree fed sorted keys too.
func TestDepthUnderSortedKeysRisingWeights(t *testing.T) {
	const n = 1 << 13
	for _, dir := range []float64{1, -1} {
		tr := &Tree[int]{}
		for i := 0; i < n; i++ {
			tr.Insert(Key{K: dir * float64(i), W: float64(i)}, i)
			if h, bound := tr.Height(), maxHeight(i+1); h > bound {
				t.Fatalf("dir %v: height %d after %d inserts, bound %d", dir, h, i+1, bound)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Deleting the heaviest half keeps the depth the inserts left.
		for i := n - 1; i >= n/2; i-- {
			tr.Delete(Key{K: dir * float64(i), W: float64(i)})
		}
		if h, bound := tr.Height(), maxHeight(n); h > bound {
			t.Fatalf("dir %v: height %d after deletes, bound %d", dir, h, bound)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeterministicShape(t *testing.T) {
	// A bulk build depends only on the entry set, not the input order.
	g := wrand.New(17)
	entries := genEntries(g, 500, true)
	a := bulk(entries)
	g.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	b := bulk(entries)
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("%d vs %d slots", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			t.Fatalf("slot %d differs: %+v vs %+v", i, a.nodes[i], b.nodes[i])
		}
	}
	// The layout is preorder: every child sits after its parent, and a
	// left subtree fills the slots right after its root.
	for i := range a.nodes {
		n := a.nodes[i]
		if n.left != none && n.left != int32(i)+1 {
			t.Fatalf("slot %d: left child at %d, want %d", i, n.left, i+1)
		}
		if n.right != none && n.right != int32(i)+1+int32(a.size(n.left)) {
			t.Fatalf("slot %d: right child at %d, want %d", i, n.right, int32(i)+1+int32(a.size(n.left)))
		}
	}
}

// TestReportVisitBound pins the walk's cost: a prefix or suffix report
// enters at most 2·t + 2·h nodes and a range report at most 2·t + 4·h,
// for t reported entries and height h. Each step down a search path
// enters one node (at most h) and starts at most one whole-subtree walk
// (at most h roots); inside such a walk every entered node other than its
// root is a child of a reported node, so those walks enter at most
// (their roots) + 2·t nodes. A range report follows one path to its fork
// and then two, hence 4·h.
func TestReportVisitBound(t *testing.T) {
	g := wrand.New(18)
	for _, c := range variants(t, 18, 4000) {
		h := c.tr.Height()
		for i := 0; i < 300; i++ {
			x, y := g.Float64()*100, g.Float64()*100
			if x > y {
				x, y = y, x
			}
			tau := g.Float64() * 1e6
			emitted := 0
			visit := func(Key, int) bool { emitted++; return true }
			if v, _ := c.tr.PrefixReportAbove(x, tau, visit); v > 2*emitted+2*h {
				t.Fatalf("%s prefix: %d visits for %d reported, height %d", c.name, v, emitted, h)
			}
			emitted = 0
			if v, _ := c.tr.SuffixReportAbove(x, tau, visit); v > 2*emitted+2*h {
				t.Fatalf("%s suffix: %d visits for %d reported, height %d", c.name, v, emitted, h)
			}
			emitted = 0
			if v, _ := c.tr.RangeReportAbove(x, y, tau, visit); v > 2*emitted+4*h {
				t.Fatalf("%s range: %d visits for %d reported, height %d", c.name, v, emitted, h)
			}
		}
	}
}

// Property: after arbitrary insert/delete interleavings the tree agrees
// with a map oracle.
func TestQuickInsertDeleteOracle(t *testing.T) {
	f := func(ops []struct {
		K   uint8
		W   uint8
		Del bool
	}) bool {
		tr := &Tree[int]{}
		oracle := map[Key]int{}
		for i, op := range ops {
			k := Key{float64(op.K % 16), float64(op.W)}
			if op.Del {
				_, want := oracle[k]
				if tr.Delete(k) != want {
					return false
				}
				delete(oracle, k)
			} else {
				oracle[k] = i
				tr.Insert(k, i)
			}
		}
		if tr.Len() != len(oracle) || tr.CheckInvariants() != nil {
			return false
		}
		for k, v := range oracle {
			got, ok := get(tr, k)
			if !ok || got != v {
				return false
			}
		}
		wantMax := math.Inf(-1)
		for k := range oracle {
			wantMax = math.Max(wantMax, k.W)
		}
		gotMax, _, ok := tr.Max()
		if len(oracle) == 0 {
			return !ok
		}
		return ok && gotMax.W == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInvariantsAfterHeavyChurn(t *testing.T) {
	tr := &Tree[int]{}
	for i := 0; i < 5000; i++ {
		tr.Insert(Key{K: float64(i % 97), W: float64(i)}, i)
		if i%3 == 0 {
			tr.Delete(Key{K: float64((i / 2) % 97), W: float64(i / 2)})
		}
		if i%512 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d ops: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h > maxHeight(tr.Len()) {
		t.Fatalf("height %d after churn, bound %d", h, maxHeight(tr.Len()))
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := wrand.New(16)
	tr := bulk(genEntries(g, 1000, false))
	wantK, _, wantOK := tr.PrefixMax(50)
	wantCount := tr.RangeCount(10, 60)
	wantReport := collect(func(v func(Key, int) bool) (int, bool) { return tr.RangeReportAbove(10, 60, 5e5, v) })

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k, _, ok := tr.PrefixMax(50)
				if ok != wantOK || k != wantK {
					t.Errorf("concurrent PrefixMax = %v,%v want %v,%v", k, ok, wantK, wantOK)
					return
				}
				if c := tr.RangeCount(10, 60); c != wantCount {
					t.Errorf("concurrent RangeCount = %d want %d", c, wantCount)
					return
				}
				got := collect(func(v func(Key, int) bool) (int, bool) { return tr.RangeReportAbove(10, 60, 5e5, v) })
				if len(got) != len(wantReport) {
					t.Errorf("concurrent RangeReportAbove: %d entries, want %d", len(got), len(wantReport))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNaNBoundsMatchNothing: no key compares ≤, ≥ or between with NaN,
// so every query with a NaN bound reports, finds and counts nothing.
func TestNaNBoundsMatchNothing(t *testing.T) {
	nan := math.NaN()
	for _, c := range variants(t, 19, 300) {
		none := func(Key, int) bool { t.Fatalf("%s: a NaN query reported an entry", c.name); return false }
		c.tr.PrefixReportAbove(nan, math.Inf(-1), none)
		c.tr.SuffixReportAbove(nan, math.Inf(-1), none)
		for _, r := range [][2]float64{{nan, 50}, {50, nan}, {nan, nan}} {
			c.tr.RangeReportAbove(r[0], r[1], math.Inf(-1), none)
			if _, _, ok := c.tr.RangeMax(r[0], r[1]); ok {
				t.Fatalf("%s: RangeMax%v found an entry", c.name, r)
			}
			if n := c.tr.RangeCount(r[0], r[1]); n != 0 {
				t.Fatalf("%s: RangeCount%v = %d", c.name, r, n)
			}
		}
		_, _, okP := c.tr.PrefixMax(nan)
		_, _, okS := c.tr.SuffixMax(nan)
		if okP || okS || c.tr.PrefixCount(nan) != 0 || c.tr.SuffixCount(nan) != 0 {
			t.Fatalf("%s: a prefix or suffix query at NaN matched", c.name)
		}
	}
}
