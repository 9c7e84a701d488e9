package bench

import (
	"io"
	"math"
	"time"

	"topk/internal/circular"
	"topk/internal/core"
	"topk/internal/enclosure"
	"topk/internal/halfspace"
	"topk/internal/interval"
)

// E19 — ablation: fractional cascading (§5.2). The plain 2D stabbing-max
// structure performs one predecessor search per segment-tree node
// (O(log n · log_B n) I/Os); the cascaded variant performs one at the
// root and O(1) bridge work per node (O(log n)). Same answers, fewer
// I/Os, slightly more space.
func runE19(w io.Writer, cfg Config) error {
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	queries := 60
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		queries = 20
	}
	t := newTable("n", "plain I/Os", "cascaded I/Os", "I/O ratio", "plain blk", "cascaded blk", "space ratio", "µs plain", "µs cascaded")
	for _, n := range ns {
		items := Rects(cfg.Seed+19, n)
		qs := EnclosurePoints(cfg.Seed+190, queries)

		trP := newTrackerB()
		plain, err := enclosure.NewMax(items, trP)
		if err != nil {
			return err
		}
		sP := trP.Stats().Blocks

		trC := newTrackerB()
		casc, err := enclosure.NewMaxCascade(items, trC)
		if err != nil {
			return err
		}
		sC := trC.Stats().Blocks

		var pIOs, cIOs int64
		start := time.Now()
		for _, q := range qs {
			pIOs += coldIOs(trP, func() { plain.MaxItem(nil, q) })
		}
		tP := time.Since(start)
		start = time.Now()
		for _, q := range qs {
			cIOs += coldIOs(trC, func() { casc.MaxItem(nil, q) })
		}
		tC := time.Since(start)
		qn := float64(queries)
		t.row(n, float64(pIOs)/qn, float64(cIOs)/qn, float64(cIOs)/float64(pIOs),
			sP, sC, float64(sC)/float64(sP),
			float64(tP.Microseconds())/qn, float64(tC.Microseconds())/qn)
	}
	t.write(w)
	note(w, "paper §5.2: fractional cascading turns the per-node predecessor searches into O(1) bridge steps — the I/O ratio should fall as n grows while the space ratio stays a small constant.")
	return nil
}

// E20 — ablation: Theorem 2's ladder growth rate σ. The analysis requires
// (1+σ)·0.91 < 1, i.e. σ < ~0.099 (the paper fixes σ = 1/20). Larger σ
// means fewer ladder levels (less space) but coarser rung calibration;
// far beyond the bound the geometric-decay argument for the query cost
// degrades.
func runE20(w io.Writer, cfg Config) error {
	n := 1 << 15
	queries := 60
	if cfg.Quick {
		n = 1 << 12
		queries = 20
	}
	const k = 64
	items := Intervals(cfg.Seed+20, n, 15)
	qs := StabPoints(cfg.Seed+200, queries)
	t := newTable("σ", "(1+σ)·0.91", "ladder levels", "sampled items", "query I/Os", "mean rounds")
	for _, sigma := range []float64{0.02, 0.05, 0.099, 0.25, 0.5} {
		tr := newTrackerB()
		exp, err := core.NewExpected(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](tr),
			interval.NewMaxFactory[interval.Interval](tr),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Sigma: sigma, Tracker: tr})
		if err != nil {
			return err
		}
		var ios int64
		for _, q := range qs {
			ios += coldIOs(tr, func() { exp.TopK(nil, q, k) })
		}
		st := exp.Stats()
		rounds := float64(st.Rounds) / float64(max64(1, st.Queries-st.NaiveScans))
		t.row(sigma, (1+sigma)*0.91, st.LadderLevels, st.SampledItems,
			float64(ios)/float64(queries), rounds)
	}
	t.write(w)
	note(w, "paper §4 fixes σ = 1/20 to keep (1+σ)·0.91 < 1. Space (levels, samples) falls with σ; the paper's cost proof needs the last column × per-round growth to converge — beyond σ ≈ 0.099 the guarantee is void even where measurements stay tame (k=%d, n=%d).", k, n)
	return nil
}

// E21 — ablation: Theorem 1's top-f constant (f = FScale·12λB·Q_pri).
// Small f ⇒ weak per-level shrink (more chain levels, more probes); huge
// f ⇒ the chain degenerates into a scan. The paper's constant sits far
// into the safe-but-wasteful right side at laptop n.
func runE21(w io.Writer, cfg Config) error {
	n := 1 << 15
	queries := 30
	if cfg.Quick {
		n = 1 << 12
		queries = 10
	}
	const k = 16
	items := Intervals(cfg.Seed+21, n, 15)
	qs := StabPoints(cfg.Seed+210, queries)
	t := newTable("FScale", "f", "chain levels", "core-set items", "query I/Os", "fallbacks")
	for _, fs := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		tr := newTrackerB()
		wc, err := core.NewWorstCase(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](tr),
			core.WorstCaseOptions{B: benchB, Lambda: interval.Lambda, Seed: cfg.Seed, Tracker: tr, FScale: fs})
		if err != nil {
			return err
		}
		var ios int64
		for _, q := range qs {
			ios += coldIOs(tr, func() { wc.TopK(nil, q, k) })
		}
		st := wc.Stats()
		t.row(fs, st.F, st.ChainLevels, st.CoreSetItems, float64(ios)/float64(queries), st.Fallbacks)
	}
	t.write(w)
	note(w, "the sweet spot balances per-level probe cost (∝ f/B) against chain depth (∝ 1/log f); the self-checking fallback counter shows when f is pushed low enough to break Lemma 2's preconditions (k=%d, n=%d).", k, n)
	return nil
}

// E22 — ablation: Corollary 1's lifting trick vs querying the unlifted
// points with the ball as a direct box-classifiable predicate. The lift
// is what the theory needs (it turns balls into halfspaces so Theorem 3's
// machinery applies verbatim); operationally the direct kd-tree prunes
// with exact ball-box distances and should search a smaller frontier.
func runE22(w io.Writer, cfg Config) error {
	const d = 2
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	queries := 40
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		queries = 15
	}
	t := newTable("n", "lifted I/Os", "direct I/Os", "direct/lifted", "µs lifted", "µs direct")
	for _, n := range ns {
		items := GaussianND(cfg.Seed+22, n, d)
		pts := make([][]float64, n)
		wsv := make([]float64, n)
		for i, it := range items {
			pts[i], wsv[i] = it.Value.C, it.Weight
		}

		trL := newTrackerB()
		lifted, err := circular.NewIndex(pts, wsv, d, trL)
		if err != nil {
			return err
		}
		trD := newTrackerB()
		direct, err := circular.NewDirectIndex(pts, wsv, d, trD)
		if err != nil {
			return err
		}

		var lIOs, dIOs int64
		var lT, dT time.Duration
		for qi := 0; qi < queries; qi++ {
			// Small balls: few results, so the search frontier dominates.
			b := circular.Ball{
				Center: []float64{float64(qi%9-4) * 4, float64(qi%7-3) * 4},
				R:      1.5,
			}
			start := time.Now()
			lIOs += coldIOs(trL, func() {
				lifted.ReportAbove(nil, b, math.Inf(-1), func(core.Item[halfspace.PtN]) bool { return true })
			})
			lT += time.Since(start)
			start = time.Now()
			dIOs += coldIOs(trD, func() {
				direct.ReportAbove(nil, b, math.Inf(-1), func(core.Item[halfspace.PtN]) bool { return true })
			})
			dT += time.Since(start)
		}
		qn := float64(queries)
		t.row(n, float64(lIOs)/qn, float64(dIOs)/qn, float64(dIOs)/float64(lIOs),
			float64(lT.Microseconds())/qn, float64(dT.Microseconds())/qn)
	}
	t.write(w)
	note(w, "the lifted kd-tree works in d+1 dimensions with a paraboloid coordinate that inflates bounding boxes; the direct ball predicate prunes tighter. small balls with τ=-∞ make the search frontier dominate the output term.")
	return nil
}

// E23 — the paper's §1.2 opposite direction: prioritized reporting is no
// harder than top-k (the known reduction this paper complements). We wrap
// the Theorem 2 top-k structure with the doubling adapter and compare its
// prioritized answers and costs against the native prioritized structure.
func runE23(w io.Writer, cfg Config) error {
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	queries := 30
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		queries = 10
	}
	t := newTable("n", "t (reported)", "native pri I/Os", "via-top-k I/Os", "overhead")
	for _, n := range ns {
		items := Intervals(cfg.Seed+23, n, 15)
		trN := newTrackerB()
		native, err := interval.NewTree(items, trN)
		if err != nil {
			return err
		}
		trT := newTrackerB()
		exp, err := core.NewExpected(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](trT),
			interval.NewMaxFactory[interval.Interval](trT),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: trT})
		if err != nil {
			return err
		}
		adapted := core.NewPrioritizedFromTopK[float64, interval.Interval](exp, benchB)

		var nIOs, aIOs int64
		reported := 0
		for _, q := range StabPoints(cfg.Seed+230, queries) {
			tau := ivTopKOracle(items, q, 32)
			cnt := 0
			nIOs += coldIOs(trN, func() {
				native.ReportAbove(nil, q, tau, func(core.Item[interval.Interval]) bool { cnt++; return true })
			})
			reported += cnt
			aIOs += coldIOs(trT, func() {
				adapted.ReportAbove(nil, q, tau, func(core.Item[interval.Interval]) bool { return true })
			})
		}
		qn := float64(queries)
		t.row(n, float64(reported)/qn, float64(nIOs)/qn, float64(aIOs)/qn, float64(aIOs)/float64(max64(1, nIOs)))
	}
	t.write(w)
	note(w, "paper §1.2 / [26,28,29]: S_pri = O(S_top), Q_pri = O(Q_top) — the adapter answers every prioritized query correctly at a constant-factor I/O overhead set by the top-k structure's own constants (doubling k from B).")
	return nil
}
