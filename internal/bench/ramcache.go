package bench

import (
	"io"
	"time"

	"topk/internal/core"
	"topk/internal/dominance"
	"topk/internal/em"
	"topk/internal/enclosure"
	"topk/internal/halfspace"
	"topk/internal/interval"
	"topk/internal/rangerep"
)

// E17 — the EM model's memory: with M/B cache frames, repeated accesses to
// hot blocks are free (the model charges only misses). Larger memories
// must monotonically reduce the charged I/Os of a repeated query stream.
func runE17(w io.Writer, cfg Config) error {
	n := 1 << 15
	queries := 40
	if cfg.Quick {
		n = 1 << 12
		queries = 15
	}
	const k = 16
	items := Intervals(cfg.Seed+17, n, 15)
	qs := StabPoints(cfg.Seed+170, queries)

	t := newTable("mem frames (M/B)", "cold I/Os", "warm I/Os", "warm hit rate", "warm/cold")
	for _, frames := range []int{2, 8, 64, 512} {
		tr := em.NewTracker(em.Config{B: benchB, MemBlocks: frames})
		exp, err := core.NewExpected(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](tr),
			interval.NewMaxFactory[interval.Interval](tr),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: tr})
		if err != nil {
			return err
		}
		var cold, warm, hits int64
		for _, q := range qs {
			tr.DropCache()
			tr.ResetCounters()
			exp.TopK(nil, q, k)
			cold += tr.Stats().IOs()
			// Same query again: whatever fits in memory is free now.
			tr.ResetCounters()
			exp.TopK(nil, q, k)
			st := tr.Stats()
			warm += st.IOs()
			hits += st.Hits
		}
		qn := float64(queries)
		hitRate := float64(hits) / float64(hits+warm)
		t.row(frames, float64(cold)/qn, float64(warm)/qn, hitRate, float64(warm)/float64(cold))
	}
	t.write(w)
	note(w, "Aggarwal–Vitter semantics: only misses cost; the warm/cold ratio must fall monotonically as M grows (per-query block reuse becomes free). ScanCost output blocks are charged unconditionally, so the ratio floors above 0.")
	return nil
}

// E18 — RAM-model scaling (the paper's closing remark: every result holds
// in RAM by fixing B). Wall-clock time per query across all six problems,
// each at two sizes: polylog-flavored growth means far less than the 8x
// input growth.
func runE18(w io.Writer, cfg Config) error {
	small, big := 1<<12, 1<<15
	queries := 25
	if cfg.Quick {
		small, big = 1<<10, 1<<12
		queries = 8
	}
	const k = 10
	t := newTable("problem", "n", "µs/query", "growth vs small")

	type probe struct {
		name string
		run  func(n int) float64 // µs per query
	}
	probes := []probe{
		{"interval stabbing (Thm 4)", func(n int) float64 {
			items := Intervals(cfg.Seed+18, n, 15)
			exp, err := core.NewExpected(items, interval.Match[interval.Interval],
				interval.NewPrioritizedFactory[interval.Interval](nil),
				interval.NewMaxFactory[interval.Interval](nil),
				core.ExpectedOptions{B: benchB, Seed: cfg.Seed})
			if err != nil {
				panic(err)
			}
			qs := StabPoints(cfg.Seed+180, queries)
			start := time.Now()
			for _, q := range qs {
				exp.TopK(nil, q, k)
			}
			return us(start, queries)
		}},
		{"1D range (survey §2)", func(n int) float64 {
			g := Intervals(cfg.Seed+19, n, 15) // reuse weights; positions from Lo
			items := make([]core.Item[float64], n)
			for i, it := range g {
				items[i] = core.Item[float64]{Value: it.Value.Lo, Weight: it.Weight}
			}
			exp, err := core.NewExpected(items, rangerep.Match,
				rangerep.NewPrioritizedFactory(nil), rangerep.NewMaxFactory(nil),
				core.ExpectedOptions{B: benchB, Seed: cfg.Seed})
			if err != nil {
				panic(err)
			}
			qs := StabPoints(cfg.Seed+181, queries)
			start := time.Now()
			for _, q := range qs {
				exp.TopK(nil, rangerep.Span{Lo: q, Hi: q + 20}, k)
			}
			return us(start, queries)
		}},
		{"point enclosure (Thm 5)", func(n int) float64 {
			items := Rects(cfg.Seed+20, n)
			exp, err := core.NewExpected(items, enclosure.Match,
				enclosure.NewPrioritizedFactory(nil), enclosure.NewMaxFactory(nil),
				core.ExpectedOptions{B: benchB, Seed: cfg.Seed})
			if err != nil {
				panic(err)
			}
			qs := EnclosurePoints(cfg.Seed+182, queries)
			start := time.Now()
			for _, q := range qs {
				exp.TopK(nil, q, k)
			}
			return us(start, queries)
		}},
		{"3D dominance (Thm 6)", func(n int) float64 {
			items := Hotels(cfg.Seed+21, n)
			exp, err := core.NewExpected(items, dominance.Match,
				dominance.NewPrioritizedFactory(nil), dominance.NewMaxFactory(nil),
				core.ExpectedOptions{B: benchB, Seed: cfg.Seed})
			if err != nil {
				panic(err)
			}
			qs := DominanceQueries(cfg.Seed+183, queries)
			start := time.Now()
			for _, q := range qs {
				exp.TopK(nil, q, k)
			}
			return us(start, queries)
		}},
		{"halfplane d=2 (Thm 3)", func(n int) float64 {
			items := Gaussian2D(cfg.Seed+22, n)
			exp, err := core.NewExpected(items, halfspace.Match,
				halfspace.NewPrioritizedFactory(nil), halfspace.NewMaxFactory(nil),
				core.ExpectedOptions{B: benchB, Seed: cfg.Seed})
			if err != nil {
				panic(err)
			}
			qs := Halfplanes(cfg.Seed+184, queries)
			start := time.Now()
			for _, q := range qs {
				exp.TopK(nil, q, k)
			}
			return us(start, queries)
		}},
		{"halfspace d=4 (Thm 3)", func(n int) float64 {
			items := GaussianND(cfg.Seed+23, n, 4)
			exp, err := core.NewExpected(items, halfspace.MatchN,
				func(sub []core.Item[halfspace.PtN]) core.Prioritized[halfspace.Halfspace, halfspace.PtN] {
					t, err := halfspace.NewKDTree(sub, 4, nil)
					if err != nil {
						panic(err)
					}
					return t
				},
				func(sub []core.Item[halfspace.PtN]) core.Max[halfspace.Halfspace, halfspace.PtN] {
					t, err := halfspace.NewKDTree(sub, 4, nil)
					if err != nil {
						panic(err)
					}
					return t
				},
				core.ExpectedOptions{B: benchB, Seed: cfg.Seed})
			if err != nil {
				panic(err)
			}
			qs := Halfspaces(cfg.Seed+185, queries, 4)
			start := time.Now()
			for _, q := range qs {
				exp.TopK(nil, q, k)
			}
			return us(start, queries)
		}},
	}

	ratio := float64(big) / float64(small)
	for _, p := range probes {
		sm := p.run(small)
		bg := p.run(big)
		t.row(p.name, small, sm, "-")
		t.row(p.name, big, bg, trimFloat(bg/sm))
	}
	t.write(w)
	note(w, "RAM model (paper §1.1: set B, M to constants): per %.0fx input growth, polylog queries should grow far below %.0fx (k=%d, Theorem 2 reduction everywhere).", ratio, ratio, k)
	return nil
}

func us(start time.Time, queries int) float64 {
	return float64(time.Since(start).Microseconds()) / float64(queries)
}
