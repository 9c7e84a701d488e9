package dynamic

import (
	"fmt"
	"sort"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/interval"
	"topk/internal/wrand"
)

// The query path sizes each level's fetch from the level's own tombstones
// and reads later levels only above the running k-th weight. These tests
// pin what that buys against the plain over-fetch it replaced: on
// adversarial churn scripts the answers equal the oracle, and the summed
// query I/Os never exceed those of the old path, charged on a separate
// view of the same overlay.

// oldPathTopK is the white-box reference: every level's top-(k + |dead_j|)
// filtered of tombstones, then the tail scan, then the k-selection over
// every live candidate, charged to v as the overlay charged it before.
func oldPathTopK[Q, V any](o *Overlay[Q, V], v *em.QueryView, q Q, k int) []core.Item[V] {
	if lvl, only := o.single(); only && len(o.tail) == 0 && len(lvl.dead) == 0 {
		return lvl.sub.TopK(v, q, k)
	}
	var cand []core.Item[V]
	for _, lvl := range o.levels {
		if lvl != nil {
			cand = lvl.keepLive(cand, lvl.sub.TopK(v, q, k+len(lvl.dead)))
		}
	}
	if len(o.tail) > 0 {
		o.charge(v, len(o.tail))
		for _, it := range o.tail {
			if o.match(q, it.Value) {
				cand = append(cand, it)
			}
		}
	}
	o.charge(v, len(cand))
	return core.TopKOf(cand, k)
}

// churnScript chooses each round's fresh weights and the weights it
// deletes.
type churnScript struct {
	name string
	// weight returns the i-th fresh weight.
	weight func(rng *wrand.RNG, i int) float64
	// victims picks m live weights to delete.
	victims func(rng *wrand.RNG, live []float64, m int) []float64
}

func randomVictims(rng *wrand.RNG, live []float64, m int) []float64 {
	sort.Float64s(live) // map order is random; the seeded pick must not be
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	return live[:m]
}

var churnScripts = []churnScript{
	{"expiry", func(rng *wrand.RNG, _ int) float64 { return rng.Float64() * 1e6 }, randomVictims},
	{"popmax", func(rng *wrand.RNG, _ int) float64 { return rng.Float64() * 1e6 },
		func(_ *wrand.RNG, live []float64, m int) []float64 {
			sort.Sort(sort.Reverse(sort.Float64Slice(live)))
			return live[:m]
		}},
	{"rising", func(_ *wrand.RNG, i int) float64 { return 2e6 + float64(i) }, randomVictims},
}

func ivBuilders(tr *em.Tracker) map[string]Builder[float64, interval.Interval] {
	return map[string]Builder[float64, interval.Interval]{
		"WorstCase": intervalBuilder(tr),
		"Expected": func(items []core.Item[interval.Interval]) (core.TopK[float64, interval.Interval], error) {
			return core.NewExpected(items, interval.Match[interval.Interval],
				interval.NewPrioritizedFactory[interval.Interval](tr), interval.NewMaxFactory[interval.Interval](tr),
				core.ExpectedOptions{B: 64, Seed: 1, Tracker: tr})
		},
	}
}

func TestQueryCostAtMostOldPath(t *testing.T) {
	const (
		n, rounds, batch, queries, k = 4096, 24, 128, 8, 10
	)
	for _, sc := range churnScripts {
		for _, pol := range []MaintenancePolicy{PolicyLogarithmic, PolicyBuffered} {
			for _, bname := range []string{"WorstCase", "Expected"} {
				t.Run(fmt.Sprintf("%s/%v/%s", sc.name, pol.ID(), bname), func(t *testing.T) {
					tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
					rng := wrand.New(21)
					ora := map[float64]interval.Interval{}
					fresh := func(i int) core.Item[interval.Interval] {
						w := sc.weight(rng, i)
						for _, dup := ora[w]; dup; _, dup = ora[w] {
							w = sc.weight(rng, i)
						}
						lo := rng.Float64() * 100
						it := ivItem(lo, lo+rng.Float64()*20, w)
						ora[w] = it.Value
						return it
					}
					init := make([]core.Item[interval.Interval], n)
					for i := range init {
						init[i] = fresh(i)
					}
					o, err := New(init, interval.Match[interval.Interval], ivBuilders(tr)[bname],
						Options{Tracker: tr, Policy: pol})
					if err != nil {
						t.Fatal(err)
					}
					var newIOs, oldIOs int64
					next := n
					for round := 0; round < rounds; round++ {
						ins := make([]core.Item[interval.Interval], batch)
						for i := range ins {
							ins[i] = fresh(next)
							next++
						}
						if err := o.InsertBatch(ins); err != nil {
							t.Fatal(err)
						}
						live := make([]float64, 0, len(ora))
						for w := range ora {
							live = append(live, w)
						}
						dels := sc.victims(rng, live, batch)
						if got := o.DeleteBatch(dels); got != batch {
							t.Fatalf("round %d: DeleteBatch removed %d of %d", round, got, batch)
						}
						for _, w := range dels {
							delete(ora, w)
						}
						for i := 0; i < queries; i++ {
							x := rng.Float64() * 110
							want := ivOracleTopK(ora, x, k)
							v := tr.BeginQuery()
							got := weightsOf(o.TopK(v, x, k))
							newIOs += v.End().IOs()
							ref := tr.BeginQuery()
							old := weightsOf(oldPathTopK(o, ref, x, k))
							oldIOs += ref.End().IOs()
							sameWeights(t, got, want, fmt.Sprintf("round %d query %d", round, i))
							sameWeights(t, old, want, fmt.Sprintf("round %d reference %d", round, i))
						}
					}
					t.Logf("query I/Os: %d, old path %d (%.2f×)", newIOs, oldIOs, float64(newIOs)/float64(oldIOs))
					if newIOs > oldIOs {
						t.Fatalf("overlay queries cost %d I/Os, more than the old path's %d", newIOs, oldIOs)
					}
				})
			}
		}
	}
}

// ivOracleTopK is the weights of the k heaviest intervals stabbed by x.
func ivOracleTopK(ora map[float64]interval.Interval, x float64, k int) []float64 {
	var ws []float64
	for w, iv := range ora {
		if iv.Contains(x) {
			ws = append(ws, w)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	return ws[:min(k, len(ws))]
}
