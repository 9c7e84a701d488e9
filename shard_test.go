package topk

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"topk/internal/interval"
	"topk/internal/shard"
	"topk/internal/snap"
	"topk/internal/wrand"
)

// shardedIntervals is the sharded interval index the registry's
// BuildSharded constructs, built directly over the given items.
type shardedIntervals = sharded[float64, interval.Interval, IntervalItem[int]]

func newShardedIntervals(items []IntervalItem[int], shards int, opts ...Option) (*shardedIntervals, error) {
	return newSharded(intervalProblem[int](), items, shards, opts)
}

// restoreShardedIntervals restores a partitioned interval snapshot
// directory straight into the sharded type.
func restoreShardedIntervals(dir string) (*shardedIntervals, error) {
	mf, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	mk := func(snap.Header) (problem[float64, interval.Interval, IntervalItem[int]], error) {
		return intervalProblem[int](), nil
	}
	return restoreSharded(mk, dir, mf, nil)
}

func shardIntervals(n int, seed uint64) []IntervalItem[int] {
	g := wrand.New(seed)
	ws := g.UniqueFloats(n, 1e6)
	items := make([]IntervalItem[int], n)
	for i := range items {
		lo := g.Float64() * 100
		items[i] = IntervalItem[int]{Lo: lo, Hi: lo + g.ExpFloat64()*5, Weight: ws[i], Data: i}
	}
	return items
}

func TestShardedConstructorErrors(t *testing.T) {
	items := shardIntervals(200, 1)
	if _, err := newShardedIntervals(items, 0); err == nil {
		t.Fatal("accepted 0 shards")
	}
	dup := append(append([]IntervalItem[int]{}, items...), items[3])
	bad := append([]IntervalItem[int]{}, items...)
	bad[150] = IntervalItem[int]{Lo: 2, Hi: 1, Weight: 0.5}
	for name, in := range map[string][]IntervalItem[int]{"duplicate weight": dup, "malformed interval": bad} {
		_, want := NewIntervalIndex(in)
		for _, shards := range []int{1, 2, 4} {
			_, err := newShardedIntervals(in, shards)
			if err == nil || want == nil {
				t.Fatalf("%s, %d shards: sharded err = %v, single err = %v", name, shards, err, want)
			}
			// The sharded error names the same item as the single one.
			if !strings.HasSuffix(err.Error(), ": "+want.Error()) {
				t.Fatalf("%s, %d shards: sharded err %q does not end in the single err %q", name, shards, err, want)
			}
		}
	}
}

// TestShardedSignedZero checks that −0 and +0 are one weight on a sharded
// index, as on a single engine: a build or insert of the second is a
// duplicate, and deleting −0 removes the +0 item. Their IEEE-754 bits
// differ, so a placement that hashed raw bits would send the two to
// different shards at most shard counts.
func TestShardedSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pos := IntervalItem[int]{Lo: 1, Hi: 2, Weight: 0}
	neg := IntervalItem[int]{Lo: 3, Hi: 4, Weight: negZero}
	const n = 20
	for shards := 1; shards <= 8; shards++ {
		both := append(shardIntervals(n, 4), pos, neg)
		if _, err := newShardedIntervals(both, shards); err == nil || !strings.Contains(err.Error(), "duplicate weight") {
			t.Fatalf("%d shards: build with 0 and -0: err = %v, want a duplicate weight", shards, err)
		}
		ix, err := newShardedIntervals(append(shardIntervals(n, 4), pos), shards, WithUpdates())
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(neg); err == nil {
			t.Fatalf("%d shards: Insert(-0) beside +0 accepted", shards)
		}
		if err := ix.InsertBatch([]IntervalItem[int]{neg}); err == nil {
			t.Fatalf("%d shards: InsertBatch(-0) beside +0 accepted", shards)
		}
		if ok, err := ix.Delete(negZero); !ok || err != nil {
			t.Fatalf("%d shards: Delete(-0) = %v, %v; want the +0 item removed", shards, ok, err)
		}
		if err := ix.Insert(neg); err != nil {
			t.Fatalf("%d shards: Insert(-0) after the delete: %v", shards, err)
		}
		if got, err := ix.DeleteBatch([]float64{0}); got != 1 || err != nil {
			t.Fatalf("%d shards: DeleteBatch(+0) = %d, %v; want the -0 item removed", shards, got, err)
		}
		if ix.Len() != n {
			t.Fatalf("%d shards: Len = %d, want %d", shards, ix.Len(), n)
		}
	}
}

// TestShardedPlacement pins down item placement: every item lives in
// the shard shard.Hash names for its weight, at build time and across
// single and batch inserts.
func TestShardedPlacement(t *testing.T) {
	const n, shards = 100, 4
	ix, err := newShardedIntervals(shardIntervals(n, 2), shards, WithUpdates())
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		for i, e := range ix.shards {
			for w := range e.data {
				if home := shard.Hash(w, shards); home != i {
					t.Fatalf("%s: weight %v lives in shard %d, Hash says %d", stage, w, i, home)
				}
			}
		}
	}
	check("after build")
	g := wrand.New(77)
	var batch []IntervalItem[int]
	for i := 0; i < 13; i++ {
		lo := g.Float64() * 100
		it := IntervalItem[int]{Lo: lo, Hi: lo + 1, Weight: 2e6 + float64(i)}
		if i%2 == 0 {
			if err := ix.Insert(it); err != nil {
				t.Fatalf("Insert %d: %v", i, err)
			}
		} else {
			batch = append(batch, it)
		}
	}
	if err := ix.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	check("after inserts")
	if ix.Len() != n+13 {
		t.Fatalf("Len() = %d", ix.Len())
	}
}

// TestShardedDynamicMatchesSingle drives the same op sequence through a
// sharded index and an unsharded one and requires identical answers —
// the update-routing analogue of the conformance query sweep.
func TestShardedDynamicMatchesSingle(t *testing.T) {
	// Placement is by weight hash; the subtest is named for it.
	t.Run("ShardByWeight", func(t *testing.T) {
		items := shardIntervals(60, 3)
		sharded, err := newShardedIntervals(items, 3)
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewIntervalIndex(items)
		if err != nil {
			t.Fatal(err)
		}
		g := wrand.New(9)
		for step := 0; step < 120; step++ {
			switch g.IntN(3) {
			case 0:
				lo := g.Float64() * 100
				it := IntervalItem[int]{Lo: lo, Hi: lo + g.Float64()*10, Weight: 3e6 + g.Float64()*1e6}
				errA, errB := sharded.Insert(it), single.Insert(it)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("step %d: Insert diverged: %v vs %v", step, errA, errB)
				}
			case 1:
				all := single.Items()
				if len(all) == 0 {
					continue
				}
				w := all[g.IntN(len(all))].Weight
				okA, errA := sharded.Delete(w)
				okB, errB := single.Delete(w)
				if okA != okB || (errA == nil) != (errB == nil) {
					t.Fatalf("step %d: Delete(%v) diverged: (%v,%v) vs (%v,%v)", step, w, okA, errA, okB, errB)
				}
			default:
				x := g.Float64() * 100
				a := sharded.TopK(x, 7)
				b := single.TopK(x, 7)
				if len(a) != len(b) {
					t.Fatalf("step %d: TopK lengths %d vs %d", step, len(a), len(b))
				}
				for i := range a {
					if a[i].Weight != b[i].Weight {
						t.Fatalf("step %d item %d: %v vs %v", step, i, a[i].Weight, b[i].Weight)
					}
				}
			}
			if sharded.Len() != single.Len() {
				t.Fatalf("step %d: Len %d vs %d", step, sharded.Len(), single.Len())
			}
		}
	})
}

// TestShardedMetricsSharedRegistry checks the observability aggregation
// contract: all shards expose through one registry, every per-shard
// series carries a shard label, each metric family renders exactly one
// HELP/TYPE header, and the topk_shards gauge reports the width.
func TestShardedMetricsSharedRegistry(t *testing.T) {
	ix, err := newShardedIntervals(shardIntervals(80, 4), 3, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	ix.TopK(50, 5)
	var b strings.Builder
	if err := ix.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `topk_shards{index="interval"} 3`) {
		t.Fatalf("missing topk_shards gauge:\n%s", text)
	}
	for sh := 0; sh < 3; sh++ {
		series := fmt.Sprintf(`topk_queries_total{index="interval",shard="%d"}`, sh)
		if !strings.Contains(text, series) {
			t.Fatalf("missing per-shard series %s:\n%s", series, text)
		}
	}
	for _, family := range []string{"topk_queries_total", "topk_query_ios", "topk_index_items"} {
		if got := strings.Count(text, "# HELP "+family+" "); got != 1 {
			t.Fatalf("%d HELP lines for %s, want 1", got, family)
		}
		if got := strings.Count(text, "# TYPE "+family+" "); got != 1 {
			t.Fatalf("%d TYPE lines for %s, want 1", got, family)
		}
	}

	plain, err := newShardedIntervals(shardIntervals(10, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteMetrics(&b); err == nil {
		t.Fatal("WriteMetrics succeeded without WithMetrics")
	}
}

// TestShardedStatsAggregate checks that index-wide Stats are the
// element-wise sum of the per-shard counters and reset together.
func TestShardedStatsAggregate(t *testing.T) {
	ix, err := newShardedIntervals(shardIntervals(120, 6), 4, WithReduction(WorstCase))
	if err != nil {
		t.Fatal(err)
	}
	ix.ResetStats()
	ix.TopK(42, 9)
	sum := Stats{Reduction: WorstCase}
	for _, e := range ix.shards {
		st := e.Stats()
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Hits += st.Hits
		sum.Blocks += st.Blocks
	}
	if got := ix.Stats(); got != sum {
		t.Fatalf("Stats() = %+v, shard sum %+v", got, sum)
	}
	if ix.Stats().IOs() == 0 {
		t.Fatal("query charged no I/Os")
	}
	ix.ResetStats()
	if st := ix.Stats(); st.Reads != 0 || st.Writes != 0 || st.Hits != 0 {
		t.Fatalf("counters after ResetStats: %+v", st)
	}
}

// TestShardedReportAboveEarlyStop checks that a visitor returning false
// stops the scan across shard boundaries.
func TestShardedReportAboveEarlyStop(t *testing.T) {
	ix, err := newShardedIntervals(shardIntervals(50, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	ix.ReportAbove(50, -1, func(IntervalItem[int]) bool {
		seen++
		return seen < 3
	})
	if seen > 3 {
		t.Fatalf("visited %d items after stopping at 3", seen)
	}
}

// TestMergeShardResultsLadder pins the per-query merge both serving
// paths share: stats sum, traces concatenate in shard order, and the
// degradation ladder keeps the top-1 prefix on OutcomeDegraded and
// empties the answer on any other abort, reporting the worst outcome
// and the first error.
func TestMergeShardResultsLadder(t *testing.T) {
	weight := func(it ServedItem) float64 { return it.Weight }
	items := func(ws ...float64) []ServedItem {
		out := make([]ServedItem, len(ws))
		for i, w := range ws {
			out[i] = ServedItem{Weight: w}
		}
		return out
	}
	errA, errB := fmt.Errorf("shard a"), fmt.Errorf("shard b")
	ok := func(ws ...float64) BatchResult[ServedItem] {
		return BatchResult[ServedItem]{
			Items: items(ws...), Stats: QueryStats{Reads: 2, Writes: 1, Hits: 3},
			Trace: []TraceEvent{{Phase: fmt.Sprint(ws)}},
		}
	}
	aborted := func(o Outcome, err error, ws ...float64) BatchResult[ServedItem] {
		r := ok(ws...)
		r.Outcome, r.Err = o, err
		return r
	}
	rows := []struct {
		name    string
		per     []BatchResult[ServedItem]
		outcome Outcome
		err     error
		want    []float64
	}{
		{"all-ok", []BatchResult[ServedItem]{ok(9, 4, 1), ok(8, 7), ok()}, OutcomeOK, nil, []float64{9, 8, 7}},
		{"degraded", []BatchResult[ServedItem]{ok(5, 4), aborted(OutcomeDegraded, errA, 6), ok(3)}, OutcomeDegraded, errA, []float64{6}},
		{"typed-refusal", []BatchResult[ServedItem]{ok(5, 4), aborted(OutcomeBudgetExceeded, errA), aborted(OutcomeDeadlineExceeded, errB)}, OutcomeDeadlineExceeded, errA, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := MergeShardResults(row.per, 3, weight)
			if got.Outcome != row.outcome || got.Err != row.err {
				t.Fatalf("outcome %v err %v, want %v %v", got.Outcome, got.Err, row.outcome, row.err)
			}
			if len(got.Items) != len(row.want) {
				t.Fatalf("items %v, want weights %v", got.Items, row.want)
			}
			for i, w := range row.want {
				if got.Items[i].Weight != w {
					t.Fatalf("items %v, want weights %v", got.Items, row.want)
				}
			}
			n := int64(len(row.per))
			if want := (QueryStats{Reads: 2 * n, Writes: n, Hits: 3 * n}); got.Stats != want {
				t.Fatalf("stats %+v, want %+v", got.Stats, want)
			}
			if len(got.Trace) != len(row.per) || got.Trace[0].Phase != row.per[0].Trace[0].Phase {
				t.Fatalf("trace %+v does not concatenate the shards' traces in order", got.Trace)
			}
		})
	}
}
