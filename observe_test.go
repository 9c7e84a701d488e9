package topk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"topk/internal/obs"
	"topk/internal/wrand"
)

// TestShardedIndexSharesOneLog drives a two-shard index whose shards run
// their batches concurrently into one wide-event writer and one
// slow-query log. The index owns a single QueryLogger and a single
// SlowQueryLog, so no two shards ever write the caller's writer at once
// (the race detector checks this), every row arrives whole, and the one
// ring holds the newest WithSlowLogKeep entries of both shards, each
// naming its shard. The ring-only log keeps every entry, so both shard
// labels must appear in it; the buffer-writer log keeps the default 64,
// so its ring wraps, and its writer must hold each shard's entries.
func TestShardedIndexSharesOneLog(t *testing.T) {
	spec, ok := ProblemByName("interval")
	if !ok {
		t.Fatal("interval not registered")
	}
	const nq = 200
	for _, slowW := range []*bytes.Buffer{nil, new(bytes.Buffer)} {
		name, keep := "ring-only", 2*nq
		slowOpts := []Option{WithSlowQueryLog(nil, 1), WithSlowLogKeep(keep)}
		if slowW != nil {
			name, keep = "buffer-writer", 64
			slowOpts = []Option{WithSlowQueryLog(slowW, 1)}
		}
		t.Run(name, func(t *testing.T) {
			var qbuf bytes.Buffer
			ix, err := spec.BuildSharded(4000, 2, 7, append(slowOpts, WithQueryLog(&qbuf))...)
			if err != nil {
				t.Fatal(err)
			}
			ix.QueryBatch(ix.GenQueries(nq, 3), 10, 2)

			lines := strings.Split(strings.TrimSpace(qbuf.String()), "\n")
			if len(lines) != 2*nq {
				t.Fatalf("got %d wide events, want %d (one per query per shard)", len(lines), 2*nq)
			}
			perShard := map[string]int{}
			recorded := map[string]int{} // per-shard queries at or above the 1-I/O threshold
			for i, line := range lines {
				var ev obs.WideEvent
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
				}
				perShard[ev.Shard]++
				if ev.IOs >= 1 {
					recorded[ev.Shard]++
				}
			}
			if len(perShard) != 2 || perShard["0"] != nq || perShard["1"] != nq {
				t.Fatalf("wide events per shard label = %v, want %d each for shards 0 and 1", perShard, nq)
			}

			if recorded["0"] == 0 || recorded["1"] == 0 {
				t.Fatalf("slow queries per shard = %v, want some on each shard", recorded)
			}
			total := recorded["0"] + recorded["1"]
			slow := ix.SlowQueries()
			if want := min(keep, total); len(slow) != want {
				t.Fatalf("SlowQueries() holds %d entries, want min(%d, %d recorded) = %d", len(slow), keep, total, want)
			}
			ringShards := map[string]int{}
			for i, e := range slow {
				var shard string
				if _, err := fmt.Sscanf(e, "slow query index=interval shard=%s ", &shard); err != nil || perShard[shard] == 0 {
					t.Fatalf("ring entry %d is not a whole slow-query entry naming its shard: %q", i, e)
				}
				ringShards[shard]++
			}
			if slowW == nil && (ringShards["0"] != recorded["0"] || ringShards["1"] != recorded["1"]) {
				t.Fatalf("ring entries per shard = %v, want %v", ringShards, recorded)
			}
			if slowW != nil {
				for _, shard := range []string{"0", "1"} {
					if got := strings.Count(slowW.String(), "slow query index=interval shard="+shard+" "); got != recorded[shard] {
						t.Fatalf("slow writer holds %d whole entries of shard %s, want %d", got, shard, recorded[shard])
					}
				}
			}
		})
	}
}

// TestQueryMetricsContract pins the query series of one index: every
// finished query, batch or single, is counted once in the counter and in
// both summaries, Theorem 2 rounds are observed once per ladder query of
// the batch path, and no fixed-bucket histogram or duplicate summary is
// exported.
func TestQueryMetricsContract(t *testing.T) {
	g := wrand.New(230)
	items := genIntervalItems(g, 4000)
	ix, err := NewIntervalIndex(items, WithReduction(Expected), WithSeed(5), WithTracing(), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	const m, j, k = 60, 7, 10
	xs := make([]float64, m)
	for i := range xs {
		xs[i] = g.Float64() * 100
	}
	res := ix.QueryBatch(xs, k, 2)
	for i := 0; i < j; i++ {
		ix.TopK(g.Float64()*100, k)
	}

	ladder, rounds := 0, 0
	for _, r := range res {
		n := 0
		for _, ev := range r.Trace {
			if strings.HasPrefix(ev.Phase, "t2.round") {
				n++
			}
		}
		if n > 0 {
			ladder++
			rounds += n
		}
	}
	if ladder == 0 {
		t.Fatal("no batch query ran a Theorem 2 round; the rounds series is untested")
	}

	var b strings.Builder
	if err := ix.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	sample := func(series string) int {
		t.Helper()
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("bad sample line %q: %v", line, err)
				}
				return int(v)
			}
		}
		t.Fatalf("series %s missing from the exposition:\n%s", series, out)
		return 0
	}
	for _, series := range []string{
		`topk_queries_total{index="interval"}`,
		`topk_query_ios_count{index="interval"}`,
		`topk_query_latency_seconds_count{index="interval"}`,
	} {
		if got := sample(series); got != m+j {
			t.Errorf("%s = %d, want %d (%d batch + %d single queries)", series, got, m+j, m, j)
		}
	}
	if got := sample(`topk_t2_rounds_count{index="interval"}`); got != ladder {
		t.Errorf("topk_t2_rounds_count = %d, want %d ladder queries from the batch traces", got, ladder)
	}
	if got := sample(`topk_t2_rounds_sum{index="interval"}`); got != rounds {
		t.Errorf("topk_t2_rounds_sum = %d, want %d rounds from the batch traces", got, rounds)
	}
	for _, bad := range []string{" histogram\n", "_bucket{", "topk_query_latency{", "topk_query_ios_quantiles"} {
		if strings.Contains(out, bad) {
			t.Errorf("exposition contains %q:\n%s", bad, out)
		}
	}
}
