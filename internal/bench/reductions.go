package bench

import (
	"io"
	"math"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/interval"
)

const benchB = 64 // block size used across reduction experiments

func newTrackerB() *em.Tracker {
	return em.NewTracker(em.Config{B: benchB, MemBlocks: 8})
}

// coldIOs measures the I/O cost of fn from a cold cache.
func coldIOs(tr *em.Tracker, fn func()) int64 {
	tr.DropCache()
	tr.ResetCounters()
	fn()
	return tr.Stats().IOs()
}

// ivTopKOracle returns the k-th weight of the true top-k (or -Inf when
// fewer than k intervals match), used to issue "fair" prioritized queries
// that emit exactly the top-k set.
func ivTopKOracle(items []core.Item[interval.Interval], q float64, k int) float64 {
	col := make([]float64, 0, k+1)
	for _, it := range items {
		if it.Value.Contains(q) {
			col = append(col, it.Weight)
		}
	}
	if len(col) < k {
		return math.Inf(-1)
	}
	top := core.TopKOf(wrapWeights(col), k)
	return top[len(top)-1].Weight
}

func wrapWeights(ws []float64) []core.Item[struct{}] {
	out := make([]core.Item[struct{}], len(ws))
	for i, w := range ws {
		out[i].Weight = w
	}
	return out
}

// E4 — Theorem 1 on interval stabbing. Claim: S_top = O(S_pri) and
// Q_top ≤ O(Q_pri · log_B n); the ratio column divided by log_B n should
// stay bounded as n grows.
func runE4(w io.Writer, cfg Config) error {
	ns := []int{1 << 13, 1 << 15, 1 << 17}
	queries := 30
	if cfg.Quick {
		ns = []int{1 << 11, 1 << 13}
		queries = 10
	}
	const k = 16
	t := newTable("n", "log_B n", "levels h", "Q_pri I/Os", "Q_top I/Os", "ratio", "ratio/h", "S_pri blk", "S_top blk", "space ratio")
	for _, n := range ns {
		items := Intervals(cfg.Seed+4, n, 15)
		qs := StabPoints(cfg.Seed+40, queries)

		trPri := newTrackerB()
		tree, err := interval.NewTree(items, trPri)
		if err != nil {
			return err
		}
		sPri := trPri.Stats().Blocks

		trTop := newTrackerB()
		wc, err := core.NewWorstCase(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](trTop),
			core.WorstCaseOptions{B: benchB, Lambda: interval.Lambda, Seed: cfg.Seed, Tracker: trTop, FScale: 0.25})
		if err != nil {
			return err
		}
		sTop := trTop.Stats().Blocks

		var priIOs, topIOs int64
		for _, q := range qs {
			tau := ivTopKOracle(items, q, k)
			priIOs += coldIOs(trPri, func() { core.CollectAll[float64](nil, tree, q, tau) })
			topIOs += coldIOs(trTop, func() { wc.TopK(nil, q, k) })
		}
		qPri := float64(priIOs) / float64(queries)
		qTop := float64(topIOs) / float64(queries)
		lb := core.LogB(n, benchB)
		h := float64(wc.Stats().ChainLevels)
		// §3.2 predicts c·(h+1)·Q_pri per top-f query for a constant c
		// set by the cost-monitoring caps, so Q_top/(h·Q_pri) is the
		// per-level overhead and should be flat.
		t.row(n, lb, h, qPri, qTop, qTop/qPri, qTop/qPri/h, sPri, sTop, float64(sTop)/float64(sPri))
	}
	t.write(w)
	note(w, "paper: Q_top = O(Q_pri·log_{g√B} n) and S_top = O(S_pri). Since h = Θ(log_{g√B} n) grows in lockstep with log_B n, the paper's ratio bound is equivalent to a constant per-level overhead — the normalized column; it and the space ratio should be flat (k=%d).", k)
	return nil
}

// E5 — Theorem 2 on interval stabbing. Claim: no degradation —
// Q_top = O(Q_pri + Q_max) in expectation; the ratio should be a flat
// constant as n grows.
func runE5(w io.Writer, cfg Config) error {
	ns := []int{1 << 13, 1 << 15, 1 << 17}
	queries := 30
	if cfg.Quick {
		ns = []int{1 << 11, 1 << 13}
		queries = 10
	}
	const k = 16
	t := newTable("n", "Q_pri", "Q_max", "Q_top (Thm 2)", "ratio Q_top/(Q_pri+Q_max)", "S_pri blk", "S_top blk")
	for _, n := range ns {
		items := Intervals(cfg.Seed+5, n, 15)
		qs := StabPoints(cfg.Seed+50, queries)

		trPri := newTrackerB()
		tree, err := interval.NewTree(items, trPri)
		if err != nil {
			return err
		}
		sPri := trPri.Stats().Blocks
		trMax := newTrackerB()
		sm, err := interval.NewStabMax1D(items, trMax)
		if err != nil {
			return err
		}

		trTop := newTrackerB()
		exp, err := core.NewExpected(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](trTop),
			interval.NewMaxFactory[interval.Interval](trTop),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: trTop})
		if err != nil {
			return err
		}
		sTop := trTop.Stats().Blocks

		var priIOs, maxIOs, topIOs int64
		for _, q := range qs {
			tau := ivTopKOracle(items, q, k)
			priIOs += coldIOs(trPri, func() { core.CollectAll[float64](nil, tree, q, tau) })
			maxIOs += coldIOs(trMax, func() { sm.MaxItem(nil, q) })
			topIOs += coldIOs(trTop, func() { exp.TopK(nil, q, k) })
		}
		qPri := float64(priIOs) / float64(queries)
		qMax := float64(maxIOs) / float64(queries)
		qTop := float64(topIOs) / float64(queries)
		t.row(n, qPri, qMax, qTop, qTop/(qPri+qMax), sPri, sTop)
	}
	t.write(w)
	note(w, "paper: expected Q_top = O(Q_pri + Q_max + k/B) with no log factor — the ratio column should stay flat as n grows 16x (k=%d).", k)
	return nil
}

// E6 — face-off across reductions at fixed n, sweeping k. Claim: the
// binary-search baseline pays (k/B)·log n in its output term, Theorem 1
// pays log_B n on the search term only, Theorem 2 pays neither.
func runE6(w io.Writer, cfg Config) error {
	n := 1 << 16
	ks := []int{1, 16, 128, 1024, 8192}
	queries := 20
	if cfg.Quick {
		n = 1 << 13
		ks = []int{1, 16, 256}
		queries = 8
	}
	items := Intervals(cfg.Seed+6, n, 20)
	qs := StabPoints(cfg.Seed+60, queries)

	trBase := newTrackerB()
	base, err := core.NewBaseline(items, interval.NewPrioritizedFactory[interval.Interval](trBase), trBase)
	if err != nil {
		return err
	}
	trWC := newTrackerB()
	wc, err := core.NewWorstCase(items, interval.Match[interval.Interval],
		interval.NewPrioritizedFactory[interval.Interval](trWC),
		core.WorstCaseOptions{B: benchB, Lambda: interval.Lambda, Seed: cfg.Seed, Tracker: trWC, FScale: 0.25})
	if err != nil {
		return err
	}
	trExp := newTrackerB()
	exp, err := core.NewExpected(items, interval.Match[interval.Interval],
		interval.NewPrioritizedFactory[interval.Interval](trExp),
		interval.NewMaxFactory[interval.Interval](trExp),
		core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: trExp})
	if err != nil {
		return err
	}
	trCnt := newTrackerB()
	cb, err := core.NewCountingBaseline(items,
		interval.NewCountingFactory[interval.Interval](trCnt),
		interval.NewPrioritizedFactory[interval.Interval](trCnt), trCnt)
	if err != nil {
		return err
	}
	trScan := newTrackerB()
	scan := core.NewScan(items, interval.Match[interval.Interval], trScan)

	t := newTable("k", "k/B", "bin-search (RJ14)", "count+report (RJ14)", "Thm 1 (worst-case)", "Thm 2 (expected)", "full scan")
	for _, k := range ks {
		var bIOs, cIOs, wIOs, eIOs, sIOs int64
		for _, q := range qs {
			bIOs += coldIOs(trBase, func() { base.TopK(nil, q, k) })
			cIOs += coldIOs(trCnt, func() { cb.TopK(nil, q, k) })
			wIOs += coldIOs(trWC, func() { wc.TopK(nil, q, k) })
			eIOs += coldIOs(trExp, func() { exp.TopK(nil, q, k) })
			sIOs += coldIOs(trScan, func() { scan.TopK(nil, q, k) })
		}
		q := float64(queries)
		t.row(k, float64(k)/benchB, float64(bIOs)/q, float64(cIOs)/q, float64(wIOs)/q, float64(eIOs)/q, float64(sIOs)/q)
	}
	t.write(w)
	note(w, "n = %d, B = %d, log2 n = %.0f: the binary-search baseline's k-term carries the extra log n factor (Eq. 2) while Theorems 1/2 stay flat in k until the k ≥ n/2 scan regime.", n, benchB, math.Log2(float64(n)))
	note(w, "space (blocks): bin-search %d, count+report %d (the §2 reduction's ×log n space blowup: every element lives in ~2·log n node structures), Thm 1 %d, Thm 2 %d.",
		trBase.Stats().Blocks, trCnt.Stats().Blocks, trWC.Stats().Blocks, trExp.Stats().Blocks)
	return nil
}

// E13 — Theorem 2 update costs. Claim: each element has O(1) expected
// copies across the sample ladder, and an update costs
// O(U_pri + U_max) expected I/Os.
func runE13(w io.Writer, cfg Config) error {
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	updates := 2000
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		updates = 400
	}
	t := newTable("n", "ladder levels", "sampled items", "copies/element", "insert I/Os", "delete I/Os")
	for _, n := range ns {
		items := Intervals(cfg.Seed+13, n, 15)
		tr := newTrackerB()
		exp, err := core.NewDynamicExpected(items, interval.Match[interval.Interval],
			interval.NewDynamicPrioritizedFactory[interval.Interval](tr),
			interval.NewDynamicMaxFactory[interval.Interval](tr),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: tr})
		if err != nil {
			return err
		}
		st := exp.Stats()
		fresh := Intervals(cfg.Seed+131, updates, 15)
		for i := range fresh {
			fresh[i].Weight += 2e9 // disjoint from the build weights
		}
		var insIOs int64
		for _, it := range fresh {
			insIOs += coldIOs(tr, func() { _ = exp.Insert(it) })
		}
		var delIOs int64
		for _, it := range fresh {
			delIOs += coldIOs(tr, func() { exp.DeleteWeight(it.Weight) })
		}
		t.row(n, st.LadderLevels, st.SampledItems,
			float64(st.SampledItems)/float64(n),
			float64(insIOs)/float64(updates),
			float64(delIOs)/float64(updates))
	}
	t.write(w)
	note(w, "paper: Σ 1/K_i = O(1/(B·Q_max)) copies per element and O(U_pri+U_max) expected I/Os per update; both columns should be flat in n.")
	return nil
}

// E14 — Theorem 2 "bootstrapping" (§1.3 remark 2): even when the max
// structure is space-hungry — S_max(m) = Θ((m/B)·log_B m) here, padded
// deliberately — the top-k structure's space stays near S_pri, because
// max structures are only built on geometrically small samples.
func runE14(w io.Writer, cfg Config) error {
	ns := []int{1 << 13, 1 << 15, 1 << 17}
	if cfg.Quick {
		ns = []int{1 << 11, 1 << 13}
	}
	t := newTable("n", "S_pri blk", "padded S_max(n) blk", "S_top blk (Thm 2)", "S_top/S_max(n)")
	for _, n := range ns {
		items := Intervals(cfg.Seed+14, n, 15)

		// Hypothetical: the padded max structure built on ALL of D.
		trHyp := newTrackerB()
		if _, err := paddedMaxFactory(trHyp)(items); err != nil {
			return err
		}
		sMaxFull := trHyp.Stats().Blocks

		trPri := newTrackerB()
		if _, err := interval.NewTree(items, trPri); err != nil {
			return err
		}
		sPri := trPri.Stats().Blocks

		trTop := newTrackerB()
		_, err := core.NewExpected(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](trTop),
			func(sub []core.Item[interval.Interval]) core.Max[float64, interval.Interval] {
				m, err := paddedMaxFactory(trTop)(sub)
				if err != nil {
					panic(err)
				}
				return m
			},
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: trTop})
		if err != nil {
			return err
		}
		sTop := trTop.Stats().Blocks
		t.row(n, sPri, sMaxFull, sTop, float64(sTop)/float64(sMaxFull))
	}
	t.write(w)
	note(w, "paper: S_top = O(S_pri + S_max(6n/(B·Q_pri))) — the reduction never builds the padded max structure on anything near n elements, so S_top can undercut S_max(n).")
	return nil
}

// paddedMaxFactory builds the folklore stabbing-max structure and pads its
// space to Θ((m/B)·log_B m) blocks, modeling a deliberately wasteful max
// structure.
func paddedMaxFactory(tr *em.Tracker) func(items []core.Item[interval.Interval]) (core.Max[float64, interval.Interval], error) {
	return func(items []core.Item[interval.Interval]) (core.Max[float64, interval.Interval], error) {
		s, err := interval.NewStabMax1D(items, tr)
		if err != nil {
			return nil, err
		}
		m := len(items)
		pad := int(float64(m) / benchB * core.LogB(m, benchB))
		if pad > 0 {
			tr.AllocRun(pad)
		}
		return s, nil
	}
}

// E15 — Theorem 1's remark 2: when Q_pri(n) ≥ (n/B)^ε, the reduction's
// query ratio becomes O(1). A synthetic surcharge makes the prioritized
// structure exactly that hard.
func runE15(w io.Writer, cfg Config) error {
	n := 1 << 15
	queries := 15
	if cfg.Quick {
		n = 1 << 12
		queries = 6
	}
	const k = 16
	items := Intervals(cfg.Seed+15, n, 15)
	qs := StabPoints(cfg.Seed+150, queries)
	t := newTable("ε", "Q_pri(n) model", "Q_pri I/Os", "Q_top I/Os", "ratio", "log_B n")
	for _, eps := range []float64{0, 0.25, 0.5, 0.75} {
		hardness := math.Pow(float64(n)/benchB, eps)
		if eps == 0 {
			hardness = 0
		}
		extra := int64(hardness)
		trPri := newTrackerB()
		base, err := interval.NewTree(items, trPri)
		if err != nil {
			return err
		}
		hardTree := &surchargedPri{inner: base, tr: trPri, extraIOs: extra}

		trTop := newTrackerB()
		qpri := func(m int) float64 {
			return core.LogB(m, benchB) + math.Pow(float64(m)/benchB, eps)
		}
		if eps == 0 {
			qpri = func(m int) float64 { return core.LogB(m, benchB) }
		}
		// Pin f to a fixed target so the chain machinery stays in its
		// asymptotic regime for every ε (with the paper's constant,
		// f = 12λB·Q_pri would exceed n once Q_pri is polynomial).
		const targetF = 512
		fscale := targetF / (12 * interval.Lambda * benchB * qpri(n))
		wc, err := core.NewWorstCase(items, interval.Match[interval.Interval],
			func(sub []core.Item[interval.Interval]) core.Prioritized[float64, interval.Interval] {
				in, err := interval.NewTree(sub, trTop)
				if err != nil {
					panic(err)
				}
				ex := int64(0)
				if eps > 0 {
					ex = int64(math.Pow(float64(len(sub))/benchB, eps))
				}
				return &surchargedPri{inner: in, tr: trTop, extraIOs: ex}
			},
			core.WorstCaseOptions{B: benchB, Lambda: interval.Lambda, Seed: cfg.Seed, Tracker: trTop, QPri: qpri, FScale: fscale})
		if err != nil {
			return err
		}

		var priIOs, topIOs int64
		for _, q := range qs {
			tau := ivTopKOracle(items, q, k)
			priIOs += coldIOs(trPri, func() { core.CollectAll[float64](nil, hardTree, q, tau) })
			topIOs += coldIOs(trTop, func() { wc.TopK(nil, q, k) })
		}
		qPri := float64(priIOs) / float64(queries)
		qTop := float64(topIOs) / float64(queries)
		t.row(eps, qpri(n), qPri, qTop, qTop/qPri, core.LogB(n, benchB))
	}
	t.write(w)
	note(w, "paper: the ratio is ≤ O(log_B n) at ε=0 and collapses toward O(1) once Q_pri = (n/B)^ε dominates — top-k is then asymptotically as easy as prioritized reporting.")
	return nil
}

// surchargedPri wraps a prioritized structure and charges extraIOs per
// query, modeling a harder problem's Q_pri.
type surchargedPri struct {
	inner    core.Prioritized[float64, interval.Interval]
	tr       *em.Tracker
	extraIOs int64
}

func (s *surchargedPri) ReportAbove(v *em.QueryView, q float64, tau float64, emit func(core.Item[interval.Interval]) bool) {
	if s.extraIOs > 0 {
		s.tr.ScanCost(v, int(s.extraIOs)*s.tr.B())
	}
	s.inner.ReportAbove(v, q, tau, emit)
}

// E16 — round geometry of the Theorem 2 query algorithm: per-round failure
// probability ≤ 0.91 implies O(1) expected rounds; the histogram should
// decay geometrically.
func runE16(w io.Writer, cfg Config) error {
	n := 1 << 16
	queries := 400
	if cfg.Quick {
		n = 1 << 13
		queries = 100
	}
	items := Intervals(cfg.Seed+16, n, 20)
	exp, err := core.NewExpected(items, interval.Match[interval.Interval],
		interval.NewPrioritizedFactory[interval.Interval](nil),
		interval.NewMaxFactory[interval.Interval](nil),
		core.ExpectedOptions{B: benchB, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	qs := StabPoints(cfg.Seed+160, queries)
	for _, q := range qs {
		exp.TopK(nil, q, 200)
	}
	st := exp.Stats()
	t := newTable("rounds", "queries", "fraction")
	total := int64(0)
	for _, c := range st.RoundHist {
		total += c
	}
	for r, c := range st.RoundHist {
		if c == 0 {
			continue
		}
		t.row(r+1, c, float64(c)/float64(total))
	}
	t.write(w)
	mean := float64(st.Rounds) / float64(max64(1, total))
	note(w, "mean rounds/query = %.2f over %d ladder queries (+%d naive scans); paper: per-round failure ≤ 0.91 ⇒ expected rounds ≤ 1/(1-0.91) ≈ 11, typically far lower.", mean, total, st.NaiveScans)
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
