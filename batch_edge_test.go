package topk

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"topk/internal/em"
	"topk/internal/wrand"
)

// Edge-case tests for the QueryBatch worker pool: degenerate inputs
// (empty batch, k=0, k>n, parallelism exceeding the batch) and the
// panic contract — a panicking query must not wedge the pool or leak its
// tracker view, and the first panic must surface on the caller.

func edgeIndex(t *testing.T) (*IntervalIndex[int], []IntervalItem[int]) {
	t.Helper()
	g := wrand.New(401)
	items := genIntervalItems(g, 50)
	ix, err := NewIntervalIndex(items, WithReduction(Expected), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	return ix, items
}

func TestQueryBatchEmpty(t *testing.T) {
	ix, _ := edgeIndex(t)
	before := ix.Stats()
	if res := ix.QueryBatch(nil, 5, 4); res != nil {
		t.Fatalf("empty batch returned %v", res)
	}
	if res := ix.QueryBatch([]float64{}, 5, 4); res != nil {
		t.Fatalf("zero-length batch returned %v", res)
	}
	if after := ix.Stats(); after.IOs() != before.IOs() {
		t.Fatal("empty batch moved the I/O counters")
	}
}

func TestQueryBatchKZero(t *testing.T) {
	ix, _ := edgeIndex(t)
	res := ix.QueryBatch([]float64{10, 50, 90}, 0, 2)
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, r := range res {
		if len(r.Items) != 0 {
			t.Fatalf("query %d: k=0 returned %d items", i, len(r.Items))
		}
	}
}

func TestQueryBatchKExceedsN(t *testing.T) {
	ix, items := edgeIndex(t)
	res := ix.QueryBatch([]float64{50}, len(items)*10, 2)
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	// Everything stabbing 50, ranked; never more than n items.
	var want []float64
	for _, it := range items {
		if it.Lo <= 50 && 50 <= it.Hi {
			want = append(want, it.Weight)
		}
	}
	got := intervalWeights(res[0].Items)
	if !sameFloats(got, topWeights(want, len(items)*10)) {
		t.Fatalf("k>n answer %v, want %v", got, want)
	}
}

// TestHugeKAnswersLikeLen: no k can end the process. Reductions size
// buffers by k, so the engine clamps k to the live count at its query
// entries; k = 1<<40 and k = math.MaxInt must then answer exactly as
// k = Len() does, through TopK and QueryBatch, on every problem ×
// reduction, static and WithUpdates (with tombstones and a tail), on one
// shard and two.
func TestHugeKAnswersLikeLen(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		for _, r := range AllReductions() {
			for _, updates := range []bool{false, true} {
				for _, shards := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/%v/updates=%v/shards=%d", spec.Name, r, updates, shards), func(t *testing.T) {
						opts := []Option{WithReduction(r)}
						if updates {
							opts = append(opts, WithUpdates())
						}
						sv := buildShards(t, spec, shards, opts...)
						qs := sv.GenQueries(4, confQSeed)
						if updates {
							// Tombstone the heaviest matches of a few queries and
							// leave fresh items in the tail.
							for _, q := range qs {
								for _, it := range sv.TopK(q, 5) {
									if _, err := sv.Delete(it.Weight); err != nil {
										t.Fatal(err)
									}
								}
							}
							for i := 0; i < 3; i++ {
								if _, err := sv.InsertFresh(uint64(900 + i)); err != nil {
									t.Fatal(err)
								}
							}
						}
						n := sv.Len()
						wantBatch := sv.QueryBatch(qs, n, 1)
						for _, k := range []int{1 << 40, math.MaxInt} {
							for qi, q := range qs {
								want := servedWeights(sv.TopK(q, n))
								if got := servedWeights(sv.TopK(q, k)); !reflect.DeepEqual(got, want) {
									t.Fatalf("k=%d q%d: TopK = %v, want %v", k, qi, got, want)
								}
							}
							for qi, br := range sv.QueryBatch(qs, k, 1) {
								if got, want := servedWeights(br.Items), servedWeights(wantBatch[qi].Items); !reflect.DeepEqual(got, want) {
									t.Fatalf("k=%d q%d: QueryBatch = %v, want %v", k, qi, got, want)
								}
							}
						}
					})
				}
			}
		}
	}
}

func TestQueryBatchParallelismExceedsQueries(t *testing.T) {
	ix, _ := edgeIndex(t)
	xs := []float64{10, 90}
	wide := ix.QueryBatch(xs, 5, 64)
	narrow := ix.QueryBatch(xs, 5, 1)
	if len(wide) != len(narrow) {
		t.Fatalf("result counts differ: %d vs %d", len(wide), len(narrow))
	}
	for i := range xs {
		if !sameFloats(intervalWeights(wide[i].Items), intervalWeights(narrow[i].Items)) {
			t.Fatalf("query %d: answers differ across parallelism", i)
		}
		if wide[i].Stats != narrow[i].Stats {
			t.Fatalf("query %d: stats differ: %+v vs %+v", i, wide[i].Stats, narrow[i].Stats)
		}
	}
}

func TestQueryBatchNegativeParallelism(t *testing.T) {
	ix, _ := edgeIndex(t)
	res := ix.QueryBatch([]float64{10, 50, 90}, 3, -7) // <= 0 means GOMAXPROCS
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
}

// TestRunBatchPanicPropagates drives runBatch directly: one query panics,
// the rest of the pool drains, the panic value reaches the caller, and
// the tracker is left clean enough that a follow-up batch succeeds with
// correct per-query accounting.
func TestRunBatchPanicPropagates(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
	qs := make([]int, 40)
	for i := range qs {
		qs[i] = i
	}

	run := func() (recovered any) {
		defer func() { recovered = recover() }()
		runBatch(tr, nil, qs, 4, batchSpec[int, int]{one: func(_ *em.QueryView, q int) []int {
			if q == 7 {
				panic("query 7 exploded")
			}
			return []int{q}
		}})
		return nil
	}
	rec := run()
	if rec == nil {
		t.Fatal("panic did not propagate to the caller")
	}
	if s, ok := rec.(string); !ok || !strings.Contains(s, "query 7 exploded") {
		t.Fatalf("unexpected panic value %v", rec)
	}

	// Every view ended: a leaked one would make the tracker refuse
	// allocation.
	tr.Alloc()

	// The pool must be reusable, per-result positions intact.
	res := runBatch(tr, nil, qs, 4, batchSpec[int, int]{one: func(_ *em.QueryView, q int) []int { return []int{q * 2} }})
	if len(res) != len(qs) {
		t.Fatalf("follow-up batch returned %d results, want %d", len(res), len(qs))
	}
	for i, r := range res {
		if len(r.Items) != 1 || r.Items[0] != i*2 {
			t.Fatalf("follow-up result %d: %v", i, r.Items)
		}
	}
}

// TestRunBatchPanicConcurrentSafety re-runs the panic path under load so
// the race detector can see the abort/recover handshake.
func TestRunBatchPanicConcurrentSafety(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
	qs := make([]int, 200)
	for i := range qs {
		qs[i] = i
	}
	for trial := 0; trial < 10; trial++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate")
				}
			}()
			runBatch(tr, nil, qs, 8, batchSpec[int, int]{one: func(_ *em.QueryView, q int) []int {
				if q%37 == 3 {
					panic(q)
				}
				return nil
			}})
		}()
	}
}
