// Package xsort implements the selection primitives that the paper's query
// algorithms invoke as black boxes: "k-selection" (pick the k largest out
// of an unordered batch, Sections 3.2 and 4) and a bounded streaming
// top-k collector.
//
// In the EM model, k-selection on m elements costs O(m/B) I/Os (a constant
// number of scans); callers charge that via em.Tracker.ScanCost. Here we
// implement the in-memory computation.
package xsort

import "slices"

// SelectTopK partitions s in place so that its first min(k, len(s))
// elements are the k "largest" under less (where less(a, b) means a orders
// before b, i.e. a is better), and returns that prefix. The prefix is NOT
// sorted; combine with SortPrefix when ordered output is needed.
//
// It runs in expected O(len(s)) time (quickselect with median-of-three
// pivoting and random-ish tie behavior avoided by 3-way partitioning).
func SelectTopK[T any](s []T, k int, less func(a, b T) bool) []T {
	if k <= 0 {
		return s[:0]
	}
	if k >= len(s) {
		return s
	}
	quickselect(s, k, less)
	return s[:k]
}

// SortPrefix sorts the first k elements of s best-first under less.
func SortPrefix[T any](s []T, k int, less func(a, b T) bool) {
	slices.SortFunc(s[:min(k, len(s))], func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// quickselect rearranges s so s[:k] holds the k best elements under less.
func quickselect[T any](s []T, k int, less func(a, b T) bool) {
	lo, hi := 0, len(s)
	for hi-lo > 12 {
		p := medianOfThree(s, lo, hi, less)
		// 3-way partition around pivot value p: [best..][equal..][worst..].
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case less(s[i], p):
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case less(p, s[i]):
				gt--
				s[i], s[gt] = s[gt], s[i]
			default:
				i++
			}
		}
		switch {
		case k <= lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // boundary falls inside the pivot-equal run
		}
	}
	insertionSort(s[lo:hi], less)
}

func medianOfThree[T any](s []T, lo, hi int, less func(a, b T) bool) T {
	a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi-1]
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// insertionSort sorts the tiny ranges quickselect leaves, which puts their
// best elements first.
func insertionSort[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Collector accumulates a stream of elements and retains the k best under
// less. Offers append to a buffer of at most 2k elements; when it fills,
// quickselect keeps its k best and the worst of them becomes the cut, and
// from then on an element not better than the cut is dropped after one
// comparison. A compaction costs expected O(k) and frees k slots, so an
// offer costs O(1) amortized in any arrival order. It is the in-memory analogue
// of answering a top-k query by scanning (the paper's "read the whole D"
// fallback) and of k-selection over a streamed batch.
type Collector[T any] struct {
	k      int
	less   func(a, b T) bool
	buf    []T // allocated at the first kept offer, capacity 2k
	cut    T   // the worst of the k best at the last compaction
	hasCut bool
}

// NewCollector returns a collector retaining the k best elements. For
// k ≤ 0 it returns nil, which is a valid collector that keeps nothing, so
// a caller that only counts a stream allocates none.
func NewCollector[T any](k int, less func(a, b T) bool) *Collector[T] {
	if k <= 0 {
		return nil
	}
	return &Collector[T]{k: k, less: less}
}

// Offer considers one element.
func (c *Collector[T]) Offer(v T) {
	if c == nil || c.hasCut && !c.less(v, c.cut) {
		return
	}
	if c.buf == nil {
		c.buf = make([]T, 0, 2*c.k)
	}
	c.buf = append(c.buf, v)
	if len(c.buf) == cap(c.buf) {
		c.buf = SelectTopK(c.buf, c.k, c.less)
		c.cut = c.buf[0]
		for _, x := range c.buf[1:] {
			if c.less(c.cut, x) {
				c.cut = x
			}
		}
		c.hasCut = true
	}
}

// Items returns the retained elements best-first and resets the collector.
func (c *Collector[T]) Items() []T {
	if c == nil {
		return nil
	}
	out := SelectTopK(c.buf, c.k, c.less)
	SortPrefix(out, len(out), c.less)
	c.buf, c.hasCut = nil, false
	return out
}
