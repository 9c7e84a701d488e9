package topk

import (
	"runtime"
	"sync"
	"testing"

	"topk/internal/wrand"
)

// BenchmarkTraceOverhead measures the observability tax on the query hot
// path. The "off" case is the guard: with no trace sink installed the
// span hooks must add zero allocations per query (each BeginSpan is one
// atomic load), so plain builds pay nothing for the instrumentation
// compiled into the reductions. Compare off vs on ns/op to see the cost
// of full tracing+metrics; `make bench` runs both.
func BenchmarkTraceOverhead(b *testing.B) {
	g := wrand.New(301)
	items := genIntervalItems(g, 2000)
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = g.Float64() * 120
	}

	run := func(b *testing.B, opts ...Option) {
		base := []Option{WithReduction(Expected), WithSeed(5)}
		ix, err := NewIntervalIndex(items, append(base, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the shared cache so steady-state queries allocate only
		// what TopK itself allocates (result slices).
		for _, x := range xs {
			ix.TopK(x, 8)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.TopK(xs[i%len(xs)], 8)
		}
	}

	var off, on testing.BenchmarkResult
	b.Run("off", func(b *testing.B) {
		run(b)
		off = testing.BenchmarkResult{N: b.N}
	})
	b.Run("on", func(b *testing.B) {
		run(b, WithTracing(), WithMetrics())
		on = testing.BenchmarkResult{N: b.N}
	})
	_ = off
	_ = on
}

// TestTraceOffZeroAllocOverhead is the CI-enforceable form of the
// benchmark: a query on a plain build must allocate exactly as many
// objects as the same query on a fully instrumented build, i.e. the
// span hooks and metrics collector add zero allocations per query on
// the shared path (the off path's per-span cost — one atomic load — is
// pinned separately by internal/em's TestSpanOffPathZeroAlloc).
func TestTraceOffZeroAllocOverhead(t *testing.T) {
	g := wrand.New(302)
	items := genIntervalItems(g, 1000)
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = g.Float64() * 120
	}
	measure := func(opts ...Option) float64 {
		base := []Option{WithReduction(Expected), WithSeed(5)}
		ix, err := NewIntervalIndex(items, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs { // warm shared cache
			ix.TopK(x, 8)
		}
		i := 0
		return testing.AllocsPerRun(200, func() {
			ix.TopK(xs[i%len(xs)], 8)
			i++
		})
	}
	plain := measure()
	traced := measure(WithTracing(), WithMetrics())
	if traced != plain {
		t.Fatalf("instrumented TopK allocates %v objects/op, plain %v; observability must add zero", traced, plain)
	}
}

// TestQueryCtxZeroAllocOverhead extends the zero-alloc gate to the
// request-lifecycle path: on an uninstrumented build, QueryBatchCtx with
// a zero QueryCtx must allocate exactly what QueryBatch does — the
// limit plumbing (one struct copy, a nil-deadline check per view) may
// not touch the heap. An armed-but-generous ctx is also pinned: arming
// the limits costs at most the deadline's time.Time bookkeeping, never
// per-query garbage proportional to the walk.
func TestQueryCtxZeroAllocOverhead(t *testing.T) {
	g := wrand.New(303)
	items := genIntervalItems(g, 1000)
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = g.Float64() * 120
	}
	ix, err := NewIntervalIndex(items, WithReduction(Expected), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs { // warm shared cache
		ix.TopK(x, 8)
	}
	measure := func(f func(i int)) float64 {
		i := 0
		return testing.AllocsPerRun(200, func() {
			f(i)
			i++
		})
	}
	// Throwaway first measurement: the very first AllocsPerRun pass runs
	// one object/op below steady state (lazy runtime warmup), which would
	// read as a spurious diff between the paths compared below.
	measure(func(i int) { ix.QueryBatch(xs[i%len(xs):i%len(xs)+1], 8, 1) })
	batch := measure(func(i int) {
		ix.QueryBatch(xs[i%len(xs):i%len(xs)+1], 8, 1)
	})
	zeroCtx := measure(func(i int) {
		ix.QueryBatchCtx(QueryCtx{}, xs[i%len(xs):i%len(xs)+1], 8, 1)
	})
	if zeroCtx != batch {
		t.Fatalf("zero-QueryCtx batch allocates %v objects/op, plain batch %v; the lifecycle plumbing must add zero", zeroCtx, batch)
	}
	armed := QueryCtx{IOBudget: 1 << 40}
	budgeted := measure(func(i int) {
		ix.QueryBatchCtx(armed, xs[i%len(xs):i%len(xs)+1], 8, 1)
	})
	if budgeted != batch {
		t.Fatalf("budget-armed batch allocates %v objects/op, plain batch %v; arming a budget must add zero", budgeted, batch)
	}
}

// TestQueryAllocBudget pins the bytes a query allocates to what it
// returns, not to f or n: for every problem under Theorem 1 and
// Theorem 2 at n = 2^15 and k = 10, one pass of 64 queries (after a warm
// pass) may allocate at most queryAllocBudget bytes a query, measured as
// runtime.MemStats.TotalAlloc over the whole pass.
//
// The budget, derived for this workload's items (at most 40 B each: an
// enclosure rectangle's four coordinates plus the weight):
//
//   - The top of the path holds one collector of at most 2k = 20 items,
//     under 1 KiB, and copies the answer three times on its way out (core
//     items, the engine's items, ServedItems with their labels), under
//     3 KiB at k = 10. The black boxes' traversal state (closures, kd-tree
//     stacks) takes under 2 KiB.
//   - That leaves 6 KiB a query, on average, for the collectors below
//     Theorem 1's top level, which hold at most 2r items each, with
//     r = ⌈8λ ln n⌉ ≤ 333 here (λ ≤ 4), so at most 26 KiB each: about one
//     query in five may recurse, which takes a level-0 probe that aborts
//     (|q(R_0)| > 4f).
//   - Before the probes streamed into bounded collectors, every aborted
//     probe held all 4f+1 items it streamed, f = 12λB·log_B n: at least
//     180 KiB here (the least is interval's, λ = 1 and 24-B items, 7681
//     items), so one such probe in 15 queries overran the budget.
func TestQueryAllocBudget(t *testing.T) {
	const (
		n, k, nq         = 1 << 15, 10, 64
		queryAllocBudget = 12 << 10
	)
	reductions := []Reduction{WorstCase, Expected}
	for _, spec := range RegisteredProblems() {
		// Build both reductions at once; measure them one at a time, since
		// TotalAlloc counts every goroutine's allocations.
		built := make([]Served, len(reductions))
		errs := make([]error, len(reductions))
		var wg sync.WaitGroup
		for i, r := range reductions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				built[i], errs[i] = spec.Build(n, 7, WithReduction(r))
			}()
		}
		wg.Wait()
		for i, r := range reductions {
			if errs[i] != nil {
				t.Fatalf("%s/%v: %v", spec.Name, r, errs[i])
			}
			sv := built[i]
			qs := sv.GenQueries(nq, 11)
			for _, q := range qs {
				sv.TopK(q, k)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, q := range qs {
				sv.TopK(q, k)
			}
			runtime.ReadMemStats(&after)
			perQuery := (after.TotalAlloc - before.TotalAlloc) / nq
			t.Logf("%s/%v: %.2f KiB per query", spec.Name, r, float64(perQuery)/1024)
			if perQuery > queryAllocBudget {
				t.Errorf("%s/%v: a TopK(q, %d) allocates %.1f KiB on average, budget %d KiB",
					spec.Name, r, k, float64(perQuery)/1024, queryAllocBudget>>10)
			}
		}
	}
}
