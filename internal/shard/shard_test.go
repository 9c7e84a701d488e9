package shard

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
)

func TestHashStableAndInRange(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		w := g.Float64() * 1e9
		for _, s := range []int{1, 2, 3, 8, 17} {
			h := Hash(w, s)
			if h < 0 || h >= s {
				t.Fatalf("Hash(%v, %d) = %d out of range", w, s, h)
			}
			if h != Hash(w, s) {
				t.Fatalf("Hash(%v, %d) not stable", w, s)
			}
		}
	}
}

// TestHashSignedZero pins that −0 and +0, one weight to every engine map,
// share a home at every shard count (their raw bits mix to different
// shards at most counts).
func TestHashSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for s := 1; s <= 64; s++ {
		if Hash(negZero, s) != Hash(0, s) {
			t.Fatalf("%d shards: Hash(-0) = %d, Hash(+0) = %d", s, Hash(negZero, s), Hash(0, s))
		}
	}
}

func TestHashSpreads(t *testing.T) {
	const n, s = 10000, 8
	g := rand.New(rand.NewSource(2))
	counts := make([]int, s)
	for i := 0; i < n; i++ {
		counts[Hash(g.Float64()*1e6, s)]++
	}
	for sh, c := range counts {
		// A fair hash puts ~n/s = 1250 in each bucket; allow a wide band.
		if c < n/s/2 || c > n/s*2 {
			t.Fatalf("shard %d holds %d of %d items — hash is badly skewed: %v", sh, c, n, counts)
		}
	}
}

func TestAssignPartitions(t *testing.T) {
	ws := []float64{5, 1, 9, 3, 7, 2, 8}
	id := func(w float64) float64 { return w }
	for _, s := range []int{1, 2, 3, 8} {
		parts := Assign(ws, s, id)
		if len(parts) != s {
			t.Fatalf("Assign returned %d buckets, want %d", len(parts), s)
		}
		// Each bucket is exactly the weights Hash sends there, in input
		// order, so the buckets also cover every item once.
		for sh, bucket := range parts {
			var want []float64
			for _, w := range ws {
				if Hash(w, s) == sh {
					want = append(want, w)
				}
			}
			if !slices.Equal(bucket, want) {
				t.Fatalf("%d shards: bucket %d = %v, want %v", s, sh, bucket, want)
			}
		}
	}
}

func TestMergeDescIsGlobalTopK(t *testing.T) {
	g := rand.New(rand.NewSource(3))
	id := func(v float64) float64 { return v }
	for trial := 0; trial < 200; trial++ {
		s := 1 + g.Intn(6)
		var all []float64
		lists := make([][]float64, s)
		for i := range lists {
			m := g.Intn(10)
			for j := 0; j < m; j++ {
				v := g.Float64()
				lists[i] = append(lists[i], v)
				all = append(all, v)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(lists[i])))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		for _, k := range []int{0, 1, 3, len(all), len(all) + 5, -1} {
			got := MergeDesc(lists, k, id)
			want := all
			if k >= 0 && k < len(all) {
				want = all[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d merged, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d item %d: %v, want %v", k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFanOutRunsEveryTask(t *testing.T) {
	for _, p := range []int{0, 1, 3, 100} {
		var hits [57]atomic.Int64
		FanOut(len(hits), p, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("parallelism %d: task %d ran %d times", p, i, hits[i].Load())
			}
		}
	}
	FanOut(0, 4, func(int) { t.Fatal("ran a task for n=0") })
}

func TestFanOutPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	FanOut(8, 2, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}
