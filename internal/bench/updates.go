package bench

import (
	"fmt"
	"io"
	"math"

	"topk/internal/core"
	"topk/internal/dynamic"
	"topk/internal/em"
	"topk/internal/interval"
	"topk/internal/wrand"
)

// E25 — the dynamization overlay (internal/dynamic): the logarithmic
// method's amortized insert bound, and its behavior under mixed
// update/query workloads.
//
// Claim 1 (amortized inserts): inserting through the overlay costs
// O(log(n/TailCap) · Build(n)/n) I/Os amortized, where Build(n) is the
// underlying reduction's one-shot construction cost — here Theorem 1
// (WorstCase) over interval stabbing. The ratio column (measured /
// model) must stay bounded by a small constant across the n sweep.
//
// Claim 2 (mix sweep): under sustained churn the overlay keeps O(log n)
// levels and a bounded tombstone fraction, so query cost degrades by at
// most the level multiplier while updates stay cheap.

// overlayBuilder constructs WorstCase interval substructures on tr, the
// same wiring the facade uses for WithUpdates indexes.
func overlayBuilder(tr *em.Tracker, seed uint64) dynamic.Builder[float64, interval.Interval] {
	return func(items []core.Item[interval.Interval]) (core.TopK[float64, interval.Interval], error) {
		return core.NewWorstCase(items, interval.Match[interval.Interval],
			interval.NewPrioritizedFactory[interval.Interval](tr),
			core.WorstCaseOptions{B: benchB, Lambda: interval.Lambda, Seed: seed, Tracker: tr})
	}
}

func runE25(w io.Writer, cfg Config) error {
	ns := []int{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17}
	if cfg.Quick {
		ns = []int{1 << 10, 1 << 11, 1 << 12}
	}

	t := newTable("n", "build I/Os", "amortized insert I/Os", "model log2(n/B)·build/n", "ratio")
	for _, n := range ns {
		items := Intervals(cfg.Seed+25, n, 15)

		// One-shot static build cost over all n items, the model's Build(n).
		trS := newTrackerB()
		if _, err := overlayBuilder(trS, cfg.Seed)(items); err != nil {
			return err
		}
		buildIOs := trS.Stats().IOs()

		// Seed the overlay with half the items, then pay for inserting the
		// other half one by one; the total is the amortized cost.
		half := n / 2
		tr := newTrackerB()
		ov, err := dynamic.New(items[:half], interval.Match[interval.Interval],
			overlayBuilder(tr, cfg.Seed), dynamic.Options{Tracker: tr, TailCap: benchB})
		if err != nil {
			return err
		}
		tr.ResetCounters()
		for _, it := range items[half:] {
			if err := ov.Insert(it); err != nil {
				return err
			}
		}
		amort := float64(tr.Stats().IOs()) / float64(n-half)
		model := math.Log2(float64(n)/benchB) * float64(buildIOs) / float64(n)
		t.row(n, buildIOs, amort, model, amort/model)
	}
	t.write(w)
	note(w, "logarithmic method: amortized insert ≤ c·log2(n/B)·Build(n)/n I/Os; the ratio column must stay bounded (≈ flat) as n grows.")
	fmt.Fprintln(w)

	// Mix sweep: fixed n, varying update share. Updates alternate
	// insert/delete so the live size stays ≈ n and tombstones accumulate.
	n := 1 << 14
	ops := 4000
	if cfg.Quick {
		n = 1 << 12
		ops = 800
	}
	t2 := newTable("update share", "avg update I/Os", "avg query I/Os", "levels", "tombstones", "flushes", "rebuilds")
	for _, pct := range []int{10, 50, 90} {
		items := Intervals(cfg.Seed+251, n, 15)
		tr := newTrackerB()
		ov, err := dynamic.New(items, interval.Match[interval.Interval],
			overlayBuilder(tr, cfg.Seed), dynamic.Options{Tracker: tr, TailCap: benchB})
		if err != nil {
			return err
		}
		g := wrand.New(cfg.Seed + 252 + uint64(pct))
		live := make([]float64, len(items))
		for i, it := range items {
			live[i] = it.Weight
		}
		nextW := 3e9
		var upIOs, qIOs int64
		var ups, qs int
		for i := 0; i < ops; i++ {
			if g.IntN(100) < pct {
				if i%2 == 0 || len(live) == 0 {
					nextW++
					lo := g.Float64() * 100
					it := core.Item[interval.Interval]{
						Value:  interval.Interval{Lo: lo, Hi: lo + g.ExpFloat64()*15},
						Weight: nextW,
					}
					upIOs += coldIOs(tr, func() {
						if err := ov.Insert(it); err != nil {
							panic(err)
						}
					})
					live = append(live, nextW)
				} else {
					j := g.IntN(len(live))
					dw := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					upIOs += coldIOs(tr, func() { ov.DeleteWeight(dw) })
				}
				ups++
			} else {
				x := g.Float64() * 100
				qIOs += coldIOs(tr, func() { ov.TopK(nil, x, 10) })
				qs++
			}
		}
		st := ov.Stats()
		avgUp, avgQ := 0.0, 0.0
		if ups > 0 {
			avgUp = float64(upIOs) / float64(ups)
		}
		if qs > 0 {
			avgQ = float64(qIOs) / float64(qs)
		}
		t2.row(pctString(pct), avgUp, avgQ, st.Levels, st.Tombstones, st.Flushes, st.Rebuilds)
	}
	t2.write(w)
	note(w, "n=%d, %d mixed ops, TailCap=B=%d, DeadFrac=0.5: levels stay O(log(n/B)) and tombstones below half the baked-in items at every mix.", n, ops, benchB)
	return nil
}

func pctString(p int) string {
	return map[int]string{10: "10%", 50: "50%", 90: "90%"}[p]
}
