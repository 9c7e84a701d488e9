package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"

	"topk"
)

// E26 — the Theorem 2 round tail through the public tracing surface.
// Lemma 3 gives each sampling round success probability ≥ 0.09, so the
// number of rounds R a query needs is stochastically dominated by a
// geometric variable: P(R ≥ r) ≤ 0.91^(r-1). Unlike E16 (which reads the
// reduction's internal counters), this experiment extracts per-query
// round counts from BatchResult.Trace — the span stream a production
// observer would see — and cross-checks the total against the
// topk_t2_rounds summary exported by WriteMetrics. The tail bound and
// the observability plumbing are validated in one pass.
func runE26(w io.Writer, cfg Config) error {
	n := 1 << 15
	nq := 10000
	if cfg.Quick {
		n = 1 << 12
		nq = 512
	}
	const k = 64

	src := Intervals(cfg.Seed+26, n, 15)
	items := make([]topk.IntervalItem[int], len(src))
	for i, it := range src {
		items[i] = topk.IntervalItem[int]{Lo: it.Value.Lo, Hi: it.Value.Hi, Weight: it.Weight, Data: i}
	}
	ix, err := topk.NewIntervalIndex(items,
		topk.WithReduction(topk.Expected), topk.WithSeed(cfg.Seed),
		topk.WithTracing(), topk.WithMetrics())
	if err != nil {
		return err
	}

	res := ix.QueryBatch(StabPoints(cfg.Seed+260, nq), k, 0)

	// Per-query rounds from the trace: every depth-0 "t2.round.*" span is
	// one ladder round, whatever its outcome. Queries answered by the
	// naive scan ("t2.scan") have no rounds and are tallied separately.
	hist := map[int]int{}
	ladder, scans, maxR := 0, 0, 0
	for _, r := range res {
		rounds := 0
		for _, ev := range r.Trace {
			if strings.HasPrefix(ev.Phase, "t2.round") {
				rounds++
			}
		}
		if rounds == 0 {
			scans++
			continue
		}
		ladder++
		hist[rounds]++
		if rounds > maxR {
			maxR = rounds
		}
	}
	if ladder == 0 {
		return fmt.Errorf("E26: no ladder queries (all %d fell to the naive scan)", scans)
	}

	t := newTable("rounds r", "queries", "P(R ≥ r)", "0.91^(r-1) bound", "within")
	tail := ladder
	for r := 1; r <= maxR; r++ {
		emp := float64(tail) / float64(ladder)
		bound := math.Pow(0.91, float64(r-1))
		ok := "yes"
		if emp > bound {
			ok = "NO"
		}
		t.row(r, hist[r], emp, bound, ok)
		tail -= hist[r]
	}
	t.write(w)

	// Cross-check the metrics surface: each finished query is observed
	// once, with one topk_t2_rounds sample per ladder query, so the
	// summary's _count must equal the trace-derived ladder-query count.
	var buf bytes.Buffer
	if err := ix.WriteMetrics(&buf); err != nil {
		return err
	}
	count, err := scrapeValue(buf.String(), `topk_t2_rounds_count{index="interval"}`)
	if err != nil {
		return err
	}
	match := "matches"
	if int(count) != ladder {
		match = fmt.Sprintf("MISMATCH (want %d)", ladder)
	}
	note(w, "%d ladder queries, %d naive scans; /metrics reports topk_t2_rounds_count = %.0f — %s. paper (Lemma 3): per-round failure ≤ 0.91 ⇒ the tail decays at least geometrically.",
		ladder, scans, count, match)
	return nil
}

// scrapeValue pulls one sample's value out of a Prometheus text
// exposition by exact series-name match.
func scrapeValue(exposition, series string) (float64, error) {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				return 0, fmt.Errorf("bench: bad sample line %q: %w", line, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("bench: series %s not found in exposition", series)
}

// MetricsSnapshot builds a fully instrumented interval index, drives a
// reference workload through it (batch queries, inserts, deletes), and
// writes the resulting Prometheus exposition to w. It backs topk-bench's
// -metrics flag, giving dashboards and exposition-format parsers a
// deterministic fixture without standing up topk-serve.
func MetricsSnapshot(w io.Writer, cfg Config) error {
	n := 20000
	nq := 2048
	updates := 400
	if cfg.Quick {
		n = 2048
		nq = 256
		updates = 64
	}
	const k = 16

	src := Intervals(cfg.Seed, n, 10)
	items := make([]topk.IntervalItem[int], len(src))
	for i, it := range src {
		items[i] = topk.IntervalItem[int]{Lo: it.Value.Lo, Hi: it.Value.Hi, Weight: it.Weight, Data: i}
	}
	ix, err := topk.NewIntervalIndex(items,
		topk.WithReduction(topk.Expected), topk.WithSeed(cfg.Seed),
		topk.WithUpdates(), topk.WithTracing(), topk.WithMetrics())
	if err != nil {
		return err
	}

	ix.QueryBatch(StabPoints(cfg.Seed+1, nq), k, 0)

	// A burst of updates populates the flush/rebuild counters and moves
	// the item/level gauges.
	extra := Intervals(cfg.Seed+2, updates, 10)
	for i, it := range extra {
		item := topk.IntervalItem[int]{Lo: it.Value.Lo, Hi: it.Value.Hi, Weight: it.Weight + 1e9, Data: n + i}
		if err := ix.Insert(item); err != nil {
			return err
		}
		if i%2 == 0 {
			if _, err := ix.Delete(item.Weight); err != nil {
				return err
			}
		}
	}
	ix.QueryBatch(StabPoints(cfg.Seed+3, nq/4), k, 0)

	return ix.WriteMetrics(w)
}
