// Package shard holds the problem-independent mechanics of horizontal
// partitioning: assigning items to shards, fanning a query out to every
// shard on a bounded worker pool, and k-way-merging the per-shard
// answers.
//
// The merge is the load-bearing piece, and it is exactly the paper's
// Lemma 2 core-set combine: each shard's top-k list is a top-k core-set
// of that shard's subset, and because the shards partition the dataset,
// the k heaviest elements of the union of the per-shard top-k lists are
// the k heaviest elements of the whole dataset. Correctness of a sharded
// top-k query therefore falls out of the same one-line argument as the
// reduction itself — no per-problem reasoning required.
package shard

import (
	"math"
	"sync"
)

// Hash maps a weight to its home shard, the one placement rule of a
// sharded index. Weights are the global item identity in this codebase
// (distinct across an index), so hashing the weight gives a home that
// the build-time partition, Insert, Delete and a snapshot restore all
// recompute with no routing table. The mixer is SplitMix64's finalizer
// over the IEEE-754 bits. −0 and +0 are one weight to the engines (==
// and map keys make them equal) but differ in their bits, so −0 is
// hashed as +0: both have one home.
func Hash(weight float64, shards int) int {
	if weight == 0 {
		weight = 0
	}
	x := math.Float64bits(weight)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Assign partitions items into shards buckets by Hash of their weight,
// keeping input order within each bucket. Every bucket is allocated even
// when empty, so callers can build one engine per bucket unconditionally.
func Assign[T any](items []T, shards int, weight func(T) float64) [][]T {
	out := make([][]T, shards)
	for _, it := range items {
		sh := Hash(weight(it), shards)
		out[sh] = append(out[sh], it)
	}
	return out
}

// MergeDesc k-way-merges lists that are each sorted by descending weight
// into the global top-k, heaviest first — the Lemma 2 core-set combine.
// Ties are broken by list order, but callers here never see ties: index
// weights are globally distinct. k < 0 means "all".
func MergeDesc[T any](lists [][]T, k int, weight func(T) float64) []T {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if k < 0 || k > total {
		k = total
	}
	if k == 0 {
		return nil
	}
	// A cursor per list; each step takes the heaviest head. With S shards
	// this is O(k·S) comparisons — S is small (a handful of shards), so a
	// heap would only add constant-factor machinery.
	cur := make([]int, len(lists))
	out := make([]T, 0, k)
	for len(out) < k {
		best := -1
		var bw float64
		for i, l := range lists {
			if cur[i] >= len(l) {
				continue
			}
			if w := weight(l[cur[i]]); best < 0 || w > bw {
				best, bw = i, w
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][cur[best]])
		cur[best]++
	}
	return out
}

// FanOut runs f(0..n-1) on a bounded pool of parallelism worker
// goroutines and waits for all of them — the same claim-by-counter pool
// the batch query path uses. parallelism <= 0 or > n means one worker
// per task. A panic in any f is re-raised on the caller after the pool
// drains.
func FanOut(n, parallelism int, f func(i int)) {
	if n <= 0 {
		return
	}
	if parallelism <= 0 || parallelism > n {
		parallelism = n
	}
	var (
		mu       sync.Mutex
		next     int
		wg       sync.WaitGroup
		panicked any
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if panicked != nil || next >= n {
			return -1
		}
		next++
		return next - 1
	}
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicked == nil {
								panicked = r
							}
							mu.Unlock()
						}
					}()
					f(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
