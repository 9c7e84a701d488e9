package bench

import (
	"io"
	"math"
	"sort"
	"time"

	"topk/internal/circular"
	"topk/internal/core"
	"topk/internal/dominance"
	"topk/internal/em"
	"topk/internal/enclosure"
	"topk/internal/halfspace"
	"topk/internal/interval"
)

// E7 — Theorem 4 (top-k interval stabbing): expected query cost
// O(log_B n + k/B) I/Os and O(log_B n) amortized expected update cost.
func runE7(w io.Writer, cfg Config) error {
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	queries, updates := 40, 500
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		queries, updates = 15, 100
	}
	const k = 32
	t := newTable("n", "model log_B n + k/B", "query I/Os", "I/Os ÷ model", "update I/Os")
	for _, n := range ns {
		items := Intervals(cfg.Seed+7, n, 15)
		tr := newTrackerB()
		exp, err := core.NewDynamicExpected(items, interval.Match[interval.Interval],
			interval.NewDynamicPrioritizedFactory[interval.Interval](tr),
			interval.NewDynamicMaxFactory[interval.Interval](tr),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: tr})
		if err != nil {
			return err
		}
		var qIOs int64
		for _, q := range StabPoints(cfg.Seed+70, queries) {
			qIOs += coldIOs(tr, func() { exp.TopK(nil, q, k) })
		}
		fresh := Intervals(cfg.Seed+71, updates, 15)
		var uIOs int64
		for i := range fresh {
			fresh[i].Weight += 2e9
			uIOs += coldIOs(tr, func() { _ = exp.Insert(fresh[i]) })
			if i%2 == 1 {
				uIOs += coldIOs(tr, func() { exp.DeleteWeight(fresh[i].Weight) })
			}
		}
		model := core.LogB(n, benchB) + float64(k)/benchB
		qAvg := float64(qIOs) / float64(queries)
		t.row(n, model, qAvg, qAvg/model, float64(uIOs)/float64(updates*3/2))
	}
	t.write(w)
	note(w, "paper (Thm 4, bullet 1): O(n/B) space, O(log_B n + k/B) expected query, O(log_B n) amortized expected update (k=%d).", k)
	return nil
}

// E8 — Theorem 5 (top-k point enclosure): polylog query. Measured I/Os
// normalized by log² n should stay bounded as n grows.
func runE8(w io.Writer, cfg Config) error {
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	queries := 30
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		queries = 10
	}
	const k = 10
	t := newTable("n", "query I/Os", "scan I/Os (n/B)", "speedup", "µs/query", "space blk")
	var prev float64
	growths := ""
	for _, n := range ns {
		items := Rects(cfg.Seed+8, n)
		tr := newTrackerB()
		exp, err := core.NewExpected(items, enclosure.Match,
			enclosure.NewPrioritizedFactory(tr),
			enclosure.NewMaxFactory(tr),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: tr})
		if err != nil {
			return err
		}
		blocks := tr.Stats().Blocks
		var ios int64
		start := time.Now()
		for _, q := range EnclosurePoints(cfg.Seed+80, queries) {
			ios += coldIOs(tr, func() { exp.TopK(nil, q, k) })
		}
		el := time.Since(start)
		avg := float64(ios) / float64(queries)
		scan := float64(n) / benchB
		t.row(n, avg, scan, scan/avg, float64(el.Microseconds())/float64(queries), blocks)
		if prev > 0 {
			growths += " x" + trimFloat(avg/prev)
		}
		prev = avg
	}
	t.write(w)
	note(w, "paper (Thm 5, bullet 1): polylog expected query — per 4x n the scan grows 4x while the index grows polylog (measured%s); the speedup column must widen with n (k=%d).", growths, k)
	return nil
}

// E9 — Theorem 6 (top-k 3D dominance): polylog query on the hotel
// workload.
func runE9(w io.Writer, cfg Config) error {
	ns := []int{1 << 11, 1 << 12, 1 << 13}
	queries := 25
	if cfg.Quick {
		ns = []int{1 << 9, 1 << 11}
		queries = 10
	}
	const k = 10
	// The 3D dominance structures hold O(n log² n) words, capping
	// feasible n; with B = 64 a scan of such small inputs is nearly free.
	// Run this experiment at B = 16 so the block-resolution regimes of
	// index and scan are comparable.
	const b9 = 16
	t := newTable("n", "query I/Os", "scan I/Os (n/B)", "speedup", "µs/query")
	var prev float64
	growths := ""
	for _, n := range ns {
		items := Hotels(cfg.Seed+9, n)
		tr := em.NewTracker(em.Config{B: b9, MemBlocks: 8})
		exp, err := core.NewExpected(items, dominance.Match,
			dominance.NewPrioritizedFactory(tr),
			dominance.NewMaxFactory(tr),
			core.ExpectedOptions{B: b9, Seed: cfg.Seed, Tracker: tr})
		if err != nil {
			return err
		}
		var ios int64
		start := time.Now()
		for _, q := range DominanceQueries(cfg.Seed+90, queries) {
			ios += coldIOs(tr, func() { exp.TopK(nil, q, k) })
		}
		el := time.Since(start)
		avg := float64(ios) / float64(queries)
		scan := float64(n) / b9
		t.row(n, avg, scan, scan/avg, float64(el.Microseconds())/float64(queries))
		if prev > 0 {
			growths += " x" + trimFloat(avg/prev)
		}
		prev = avg
	}
	t.write(w)
	note(w, "paper (Thm 6): O(log^1.5 n + k) expected query (our substituted reporting is O(log³ n + t)) — polylog either way, so per 2x n the index cost must grow far slower than the 2x scan (measured%s; B=%d here, see comment; k=%d).", growths, b9, k)
	return nil
}

// E10 — Theorem 3 d=2 (top-k halfplane): expected query near
// O(log n + k); the binary-search baseline pays an extra log factor.
func runE10(w io.Writer, cfg Config) error {
	ns := []int{1 << 11, 1 << 13, 1 << 15}
	queries := 20
	if cfg.Quick {
		ns = []int{1 << 9, 1 << 11}
		queries = 8
	}
	// Two k regimes: small k (search-term dominated) and large k, where
	// the baseline's multiplicative log n on the output term bites.
	const kSmall, kLarge = 10, 512
	t := newTable("n", "Thm2 k=10", "base k=10", "Thm2 k=512", "base k=512", "base/Thm2 @512", "µs/query (Thm2)")
	for _, n := range ns {
		items := Gaussian2D(cfg.Seed+10, n)
		tr := newTrackerB()
		exp, err := core.NewExpected(items, halfspace.Match,
			halfspace.NewPrioritizedFactory(tr),
			halfspace.NewMaxFactory(tr),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: tr})
		if err != nil {
			return err
		}
		trB := newTrackerB()
		base, err := core.NewBaseline(items, halfspace.NewPrioritizedFactory(trB), trB)
		if err != nil {
			return err
		}
		var eS, bS, eL, bL int64
		start := time.Now()
		for _, q := range Halfplanes(cfg.Seed+100, queries) {
			eS += coldIOs(tr, func() { exp.TopK(nil, q, kSmall) })
			eL += coldIOs(tr, func() { exp.TopK(nil, q, kLarge) })
		}
		el := time.Since(start)
		for _, q := range Halfplanes(cfg.Seed+100, queries) {
			bS += coldIOs(trB, func() { base.TopK(nil, q, kSmall) })
			bL += coldIOs(trB, func() { base.TopK(nil, q, kLarge) })
		}
		qn := float64(queries)
		t.row(n, float64(eS)/qn, float64(bS)/qn, float64(eL)/qn, float64(bL)/qn,
			float64(bL)/float64(eL), float64(el.Microseconds())/(2*qn))
	}
	t.write(w)
	note(w, "paper (Thm 3, bullet 1 + Eq. 2): the baseline's output term is (k/B)·log n vs Theorem 2's k/B — at k=512 the baseline must lose by a widening factor; at k=10 both are search-dominated and Theorem 2's B·Q_max floor shows as a constant.")
	return nil
}

// E11 — Theorem 3 d≥4: when Q_pri = Θ((n/B)^ε), Theorem 1 gives
// Q_top = O(Q_pri): the measured growth exponents should match and the
// ratio should flatten.
func runE11(w io.Writer, cfg Config) error {
	const d = 4
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	queries := 15
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		queries = 6
	}
	const k = 16
	t := newTable("n", "Q_pri I/Os", "Q_top I/Os", "ratio", "§5.5 EM-str I/Os", "§5.5 levels")
	for _, n := range ns {
		items := GaussianND(cfg.Seed+11, n, d)
		trPri := newTrackerB()
		kd, err := halfspace.NewKDTree(items, d, trPri)
		if err != nil {
			return err
		}
		trEM := newTrackerB()
		em55, err := halfspace.NewEMPrioritized(items, d, 0.5, trEM)
		if err != nil {
			return err
		}
		trTop := newTrackerB()
		qpri := func(m int) float64 {
			return core.LogB(m, benchB) + math.Pow(float64(m)/benchB, 1-1.0/d)
		}
		// Keep f in the asymptotic regime (see E15's note on the paper's
		// constant).
		const targetF = 512
		wc, err := core.NewWorstCase(items, halfspace.MatchN,
			halfspace.NewKDPrioritizedFactory(d, trTop),
			core.WorstCaseOptions{
				B: benchB, Lambda: halfspace.LambdaN(d), Seed: cfg.Seed, Tracker: trTop,
				QPri:   qpri,
				FScale: targetF / (12 * halfspace.LambdaN(d) * benchB * qpri(n)),
			})
		if err != nil {
			return err
		}
		// Calibrate each halfspace to select exactly 4k points, so the
		// prioritized cost is dominated by the geometric search frontier
		// (the (n/B)^(1-1/d) term) rather than by output volume.
		queriesQ := Halfspaces(cfg.Seed+110, queries, d)
		for qi := range queriesQ {
			dots := make([]float64, len(items))
			for i, it := range items {
				dots[i] = it.Value.Dot(queriesQ[qi].A)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(dots)))
			queriesQ[qi].C = dots[4*k-1]
		}
		var priIOs, topIOs, emIOs int64
		for _, q := range queriesQ {
			priIOs += coldIOs(trPri, func() {
				kd.ReportAbove(nil, q, math.Inf(-1), func(core.Item[halfspace.PtN]) bool { return true })
			})
			topIOs += coldIOs(trTop, func() { wc.TopK(nil, q, k) })
			emIOs += coldIOs(trEM, func() {
				em55.ReportAbove(nil, q, math.Inf(-1), func(core.Item[halfspace.PtN]) bool { return true })
			})
		}
		qPri := float64(priIOs) / float64(queries)
		qTop := float64(topIOs) / float64(queries)
		t.row(n, qPri, qTop, qTop/qPri, float64(emIOs)/float64(queries), em55.Levels())
	}
	t.write(w)
	note(w, "paper (Thm 3, bullets 2–3 via Thm 1's remark): with Q_pri = (n/B)^(1-1/⌊d/2⌋) the reduction loses no asymptotic factor — the ratio column should flatten rather than grow with n. The last two columns run the paper's own §5.5 EM construction (fanout-f weight B-tree over the halfspace black box, O(1) levels) on the same queries (d=%d, k=%d, ε=0.5).", d, k)
	return nil
}

// E12 — Corollary 1 (circular reporting via lifting): the lifted top-k
// structure should scale like the (d+1)-dimensional halfspace structure.
func runE12(w io.Writer, cfg Config) error {
	const d = 2
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	queries := 20
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 12}
		queries = 8
	}
	const k = 10
	t := newTable("n", "query I/Os", "µs/query", "growth vs prev")
	prev := 0.0
	for _, n := range ns {
		items := GaussianND(cfg.Seed+12, n, d)
		lifted := make([]core.Item[halfspace.PtN], len(items))
		for i, it := range items {
			lifted[i] = core.Item[halfspace.PtN]{Value: circular.Lift(it.Value.C), Weight: it.Weight}
		}
		tr := newTrackerB()
		exp, err := core.NewExpected(lifted, circular.Match,
			circular.NewPrioritizedFactory(d, tr),
			circular.NewMaxFactory(d, tr),
			core.ExpectedOptions{B: benchB, Seed: cfg.Seed, Tracker: tr})
		if err != nil {
			return err
		}
		var ios int64
		start := time.Now()
		for qi := 0; qi < queries; qi++ {
			center := []float64{float64(qi%7-3) * 4, float64(qi%5-2) * 4}
			ios += coldIOs(tr, func() { exp.TopK(nil, circular.Ball{Center: center, R: 8}, k) })
		}
		el := time.Since(start)
		avg := float64(ios) / float64(queries)
		growth := "-"
		if prev > 0 {
			growth = trimFloat(avg / prev)
		}
		t.row(n, avg, float64(el.Microseconds())/float64(queries), growth)
		prev = avg
	}
	t.write(w)
	note(w, "paper (Cor. 1): the lifted structure inherits the halfspace bounds one dimension up — growth per 4x n should track the lifted kd-tree's sublinear exponent, not 4x (d=%d→%d, k=%d).", d, d+1, k)
	return nil
}
