package dynamic

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/interval"
	"topk/internal/wrand"
)

// The package tests exercise the overlay over a toy 1D threshold problem:
// values are reals, a query q matches every value v ≤ q. The oracle is a
// plain map.

func thresholdMatch(q float64, v float64) bool { return v <= q }

func scanBuilder(tr *em.Tracker) Builder[float64, float64] {
	return func(items []core.Item[float64]) (core.TopK[float64, float64], error) {
		return core.NewScan(items, thresholdMatch, tr), nil
	}
}

// topkOnly hides Scan's prioritized surface so PrioritizedOf returns nil
// and the overlay's scan fallback runs.
type topkOnly struct{ inner core.TopK[float64, float64] }

func (t topkOnly) TopK(v *em.QueryView, q float64, k int) []core.Item[float64] {
	return t.inner.TopK(v, q, k)
}

func item(v, w float64) core.Item[float64] { return core.Item[float64]{Value: v, Weight: w} }

// oracle is the mutable ground truth: weight -> value.
type oracle map[float64]float64

func (o oracle) topK(q float64, k int) []float64 {
	var ws []float64
	for w, v := range o {
		if thresholdMatch(q, v) {
			ws = append(ws, w)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	if len(ws) > k {
		ws = ws[:k]
	}
	return ws
}

func weightsOf[V any](items []core.Item[V]) []float64 {
	ws := make([]float64, len(items))
	for i, it := range items {
		ws[i] = it.Weight
	}
	return ws
}

func sameWeights(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d items %v, want %d %v", ctx, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d: got weight %v, want %v (%v vs %v)", ctx, i, got[i], want[i], got, want)
		}
	}
}

func TestChurnVsOracle(t *testing.T) {
	rng := wrand.New(7)
	o, err := New(nil, thresholdMatch, scanBuilder(nil), Options{TailCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ora := oracle{}
	var weights []float64 // insertion order, for delete targeting
	nextW := 0.0

	for op := 0; op < 8000; op++ {
		switch r := rng.Float64(); {
		case r < 0.5: // insert
			nextW++
			v := rng.Float64() * 100
			if err := o.Insert(item(v, nextW)); err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			ora[nextW] = v
			weights = append(weights, nextW)
		case r < 0.75 && len(weights) > 0: // delete
			i := rng.IntN(len(weights))
			w := weights[i]
			weights[i] = weights[len(weights)-1]
			weights = weights[:len(weights)-1]
			_, present := ora[w]
			if got := o.DeleteWeight(w); got != present {
				t.Fatalf("op %d: DeleteWeight(%v) = %v, oracle says %v", op, w, got, present)
			}
			delete(ora, w)
		default: // query
			q := rng.Float64() * 100
			k := 1 + rng.IntN(5)
			got := weightsOf(o.TopK(nil, q, k))
			sameWeights(t, got, ora.topK(q, k), "TopK")
		}
		if o.N() != len(ora) {
			t.Fatalf("op %d: N() = %d, oracle has %d", op, o.N(), len(ora))
		}
	}

	// Final full sweep at several k, plus an Items snapshot check.
	for _, k := range []int{1, 3, 17, len(ora) + 5} {
		got := weightsOf(o.TopK(nil, math.Inf(1), k))
		sameWeights(t, got, ora.topK(math.Inf(1), k), "final TopK")
	}
	live := weightsOf(o.Items())
	sort.Float64s(live)
	want := make([]float64, 0, len(ora))
	for w := range ora {
		want = append(want, w)
	}
	sort.Float64s(want)
	sameWeights(t, live, want, "Items")
}

func TestLevelInvariants(t *testing.T) {
	o, err := New(nil, thresholdMatch, scanBuilder(nil), Options{TailCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if err := o.Insert(item(float64(i%97), float64(i))); err != nil {
			t.Fatal(err)
		}
		if len(o.tail) >= o.opts.TailCap {
			t.Fatalf("after insert %d: tail has %d ≥ TailCap %d", i, len(o.tail), o.opts.TailCap)
		}
		for j, lvl := range o.levels {
			if lvl != nil && len(lvl.items) > o.capOf(j) {
				t.Fatalf("after insert %d: level %d holds %d > cap %d", i, j, len(lvl.items), o.capOf(j))
			}
		}
	}
	st := o.Stats()
	maxLevels := 2 + int(math.Ceil(math.Log2(float64(n)/4)))
	if st.Levels > maxLevels {
		t.Fatalf("%d occupied levels for n=%d, want ≤ %d", st.Levels, n, maxLevels)
	}
	if st.Live != n || st.Inserts != n {
		t.Fatalf("stats: %+v, want Live=Inserts=%d", st, n)
	}
	if st.Flushes == 0 || st.BuiltItems < int64(n) {
		t.Fatalf("stats: %+v, want Flushes > 0 and BuiltItems ≥ %d", st, n)
	}
}

// intervalBuilder builds real block-allocating substructures (interval
// trees under the WorstCase reduction) so space accounting is observable.
func intervalBuilder(tr *em.Tracker) Builder[float64, interval.Interval] {
	return func(items []core.Item[interval.Interval]) (core.TopK[float64, interval.Interval], error) {
		return core.NewWorstCase(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](tr),
			core.WorstCaseOptions{B: 64, Lambda: interval.Lambda, Seed: 1, Tracker: tr})
	}
}

func ivItem(lo, hi, w float64) core.Item[interval.Interval] {
	return core.Item[interval.Interval]{Value: interval.Interval{Lo: lo, Hi: hi}, Weight: w}
}

func TestBlockAccountingReturnsToZero(t *testing.T) {
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
	var init []core.Item[interval.Interval]
	for i := 0; i < 300; i++ {
		init = append(init, ivItem(float64(i), float64(i+10), float64(i)))
	}
	o, err := New(init, interval.Match[interval.Interval], intervalBuilder(tr),
		Options{Tracker: tr, TailCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Blocks == 0 {
		t.Fatal("initial build allocated no blocks; accounting test is vacuous")
	}
	for i := 300; i < 700; i++ {
		if err := o.Insert(ivItem(float64(i), float64(i+10), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting in insertion order drives both discard paths: fully dead
	// levels and the tombstone-fraction global rebuild.
	for i := 0; i < 700; i++ {
		if !o.DeleteWeight(float64(i)) {
			t.Fatalf("DeleteWeight(%d) = false", i)
		}
	}
	if o.N() != 0 {
		t.Fatalf("N() = %d after deleting everything", o.N())
	}
	if b := tr.Stats().Blocks; b != 0 {
		t.Fatalf("%d blocks still allocated after deleting everything", b)
	}
	if st := o.Stats(); st.Rebuilds == 0 {
		t.Fatalf("stats %+v: expected at least one global rebuild", st)
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	var init []core.Item[float64]
	for i := 0; i < 64; i++ {
		init = append(init, item(float64(i), float64(i)))
	}
	o, err := New(init, thresholdMatch, scanBuilder(nil), Options{TailCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Weight 50 is baked into the initial substructure; tombstone it and
	// bring it back with a different value.
	if !o.DeleteWeight(50) {
		t.Fatal("delete of baked-in weight failed")
	}
	if o.DeleteWeight(50) {
		t.Fatal("second delete of the same weight succeeded")
	}
	if err := o.Insert(item(200, 50)); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if err := o.Insert(item(1, 50)); err == nil {
		t.Fatal("duplicate insert of live weight succeeded")
	}
	// Only the new copy (value 200, matching no small query) may be seen.
	if got := weightsOf(o.TopK(nil, 100, 64)); len(got) != 63 {
		t.Fatalf("query over old value range returned %d items, want 63", len(got))
	}
	got := weightsOf(o.TopK(nil, 300, 64))
	if len(got) != 64 || got[0] != 63 {
		t.Fatalf("full query: %v", got)
	}
	if o.N() != 64 {
		t.Fatalf("N() = %d, want 64", o.N())
	}
}

func TestInsertValidation(t *testing.T) {
	o, err := New(nil, thresholdMatch, scanBuilder(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(item(1, math.NaN())); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if err := o.Insert(item(1, math.Inf(1))); err == nil {
		t.Fatal("+Inf weight accepted")
	}
	if err := o.Insert(item(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(item(2, 5)); err == nil {
		t.Fatal("duplicate tail weight accepted")
	}
	if o.DeleteWeight(99) {
		t.Fatal("delete of absent weight succeeded")
	}
}

func TestEmptyOverlay(t *testing.T) {
	o, err := New(nil, thresholdMatch, scanBuilder(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o.N() != 0 || len(o.Items()) != 0 {
		t.Fatal("empty overlay is not empty")
	}
	if got := o.TopK(nil, 10, 3); got != nil {
		t.Fatalf("TopK on empty overlay: %v", got)
	}
	if got := o.TopK(nil, 10, 0); got != nil {
		t.Fatalf("TopK with k=0: %v", got)
	}
	o.ReportAbove(nil, 10, 0, func(core.Item[float64]) bool {
		t.Fatal("ReportAbove emitted on empty overlay")
		return false
	})
}

func TestNewRejectsBadWeights(t *testing.T) {
	if _, err := New([]core.Item[float64]{item(1, 3), item(2, 3)},
		thresholdMatch, scanBuilder(nil), Options{}); err == nil {
		t.Fatal("duplicate initial weights accepted")
	}
	if _, err := New([]core.Item[float64]{item(1, math.NaN())},
		thresholdMatch, scanBuilder(nil), Options{}); err == nil {
		t.Fatal("NaN initial weight accepted")
	}
}

func TestReportAboveStopAndFallback(t *testing.T) {
	for name, builder := range map[string]Builder[float64, float64]{
		"prioritized": scanBuilder(nil),
		"scan-fallback": func(items []core.Item[float64]) (core.TopK[float64, float64], error) {
			return topkOnly{core.NewScan(items, thresholdMatch, nil)}, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			var init []core.Item[float64]
			for i := 0; i < 40; i++ {
				init = append(init, item(float64(i), float64(i)))
			}
			o, err := New(init, thresholdMatch, builder, Options{TailCap: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Spread items across levels and the tail.
			for i := 40; i < 50; i++ {
				if err := o.Insert(item(float64(i), float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			o.DeleteWeight(10)

			seen := map[float64]bool{}
			o.ReportAbove(nil, math.Inf(1), 5, func(it core.Item[float64]) bool {
				if seen[it.Weight] {
					t.Fatalf("weight %v emitted twice", it.Weight)
				}
				seen[it.Weight] = true
				return true
			})
			if len(seen) != 44 { // weights 5..49 minus deleted 10
				t.Fatalf("ReportAbove emitted %d items, want 44", len(seen))
			}
			if seen[10] {
				t.Fatal("tombstoned weight emitted")
			}

			calls := 0
			o.ReportAbove(nil, math.Inf(1), 0, func(core.Item[float64]) bool {
				calls++
				return false
			})
			if calls != 1 {
				t.Fatalf("emit called %d times after returning false", calls)
			}

			if o.Prioritized() == nil {
				t.Fatal("overlay does not expose itself as prioritized")
			}
		})
	}
}

func TestTopKOverfetchesPastTombstones(t *testing.T) {
	// All heavy items in the substructure are dead; TopK must still find
	// the light live ones behind them.
	var init []core.Item[float64]
	for i := 0; i < 64; i++ {
		init = append(init, item(float64(i), float64(i)))
	}
	o, err := New(init, thresholdMatch, scanBuilder(nil), Options{TailCap: 8, DeadFrac: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	for i := 34; i < 64; i++ { // kill the 30 heaviest; below DeadFrac
		if !o.DeleteWeight(float64(i)) {
			t.Fatalf("delete %d", i)
		}
	}
	got := weightsOf(o.TopK(nil, math.Inf(1), 3))
	sameWeights(t, got, []float64{33, 32, 31}, "post-tombstone TopK")
}

// nopSink turns tracing on so query views keep their spans.
type nopSink struct{}

func (nopSink) Event(em.TraceEvent) {}

func TestTopKRefetchesHollowedMatches(t *testing.T) {
	// 400 items, value i%4, weight i, in one level. The 60 heaviest items
	// of value 0 are deleted: a query for value 0 finds its top hollowed
	// out, although the level's heaviest weights overall are live.
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
	tr.SetTraceSink(nopSink{})
	var init []core.Item[float64]
	for i := 0; i < 400; i++ {
		init = append(init, item(float64(i%4), float64(i)))
	}
	o, err := New(init, thresholdMatch, scanBuilder(tr), Options{Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	for w := 396; w >= 160; w -= 4 {
		if !o.DeleteWeight(float64(w)) {
			t.Fatalf("delete %d", w)
		}
	}
	for _, c := range []struct {
		q    float64
		want []float64
		read int64 // items the level's sub-queries returned
	}{
		// k = 3: s = max(⌈2·3·400/340⌉, r_j = 3) = 8 matches, all dead, so a
		// second query asks for the exact k + |dead_j| = 63.
		{0, []float64{156, 152, 148}, 8 + 63},
		// Every item matches: the first 8 hold 6 live ones, enough.
		{3, []float64{399, 398, 397}, 8},
	} {
		v := tr.BeginQuery()
		got := weightsOf(o.TopK(v, c.q, 3))
		v.End()
		sameWeights(t, got, c.want, fmt.Sprintf("q=%v", c.q))
		var read int64 = -1
		for _, ev := range v.Trace() {
			if ev.Phase == PhaseLevel {
				read = ev.Arg
			}
		}
		if read != c.read {
			t.Fatalf("q=%v: %s span Arg = %d, want %d items read", c.q, PhaseLevel, read, c.read)
		}
	}
}

func TestTopKSkipsDominatedLevels(t *testing.T) {
	// A light level (weights 0..399) and a heavier, newer one (weights
	// 1000..1199): the heavy level's 5th live weight tops every weight of
	// the light one, so it is read first and the light level never is.
	tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
	tr.SetTraceSink(nopSink{})
	var init, heavy []core.Item[float64]
	for i := 0; i < 400; i++ {
		init = append(init, item(float64(i%4), float64(i)))
	}
	for i := 0; i < 200; i++ {
		heavy = append(heavy, item(float64(i%4), float64(1000+i)))
	}
	o, err := New(init, thresholdMatch, scanBuilder(tr), Options{Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.InsertBatch(heavy); err != nil {
		t.Fatal(err)
	}
	light := o.where[0]
	if o.where[1000] == light {
		t.Fatal("setup: the two batches share a level")
	}
	v := tr.BeginQuery()
	got := weightsOf(o.TopK(v, 3, 5))
	v.End()
	sameWeights(t, got, []float64{1199, 1198, 1197, 1196, 1195}, "TopK")
	for _, ev := range v.Trace() {
		if ev.Phase == PhaseLevel && ev.Level == light && (ev.Arg != 0 || ev.IOs() != 0) {
			t.Fatalf("dominated level read %d items for %d I/Os, want none", ev.Arg, ev.IOs())
		}
	}
}
