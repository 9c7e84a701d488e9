package dynamic

import (
	"math"
	"sort"
	"strings"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/interval"
	"topk/internal/wrand"
)

func newOverlayWith(t *testing.T, pol MaintenancePolicy, tailCap int) *Overlay[float64, float64] {
	t.Helper()
	o, err := New(nil, thresholdMatch, scanBuilder(nil), Options{TailCap: tailCap, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestChurnVsOracleBuffered is the churn suite under PolicyBuffered,
// with bulk ops mixed in: answers must stay oracle-exact while the
// buffered maintainer merges tiers and partially rebuilds runs.
func TestChurnVsOracleBuffered(t *testing.T) {
	rng := wrand.New(11)
	o := newOverlayWith(t, PolicyBuffered, 8)
	ora := oracle{}
	var weights []float64
	nextW := 0.0

	for op := 0; op < 8000; op++ {
		switch r := rng.Float64(); {
		case r < 0.40: // insert
			nextW++
			v := rng.Float64() * 100
			if err := o.Insert(item(v, nextW)); err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			ora[nextW] = v
			weights = append(weights, nextW)
		case r < 0.50: // bulk insert
			m := 1 + rng.IntN(40)
			batch := make([]core.Item[float64], 0, m)
			for i := 0; i < m; i++ {
				nextW++
				v := rng.Float64() * 100
				batch = append(batch, item(v, nextW))
				ora[nextW] = v
				weights = append(weights, nextW)
			}
			if err := o.InsertBatch(batch); err != nil {
				t.Fatalf("op %d: InsertBatch: %v", op, err)
			}
		case r < 0.70 && len(weights) > 0: // delete
			i := rng.IntN(len(weights))
			w := weights[i]
			weights[i] = weights[len(weights)-1]
			weights = weights[:len(weights)-1]
			_, present := ora[w]
			if got := o.DeleteWeight(w); got != present {
				t.Fatalf("op %d: DeleteWeight(%v) = %v, oracle says %v", op, w, got, present)
			}
			delete(ora, w)
		case r < 0.75 && len(weights) > 3: // bulk delete
			m := 1 + rng.IntN(min(20, len(weights)))
			ws := make([]float64, 0, m)
			for i := 0; i < m; i++ {
				j := rng.IntN(len(weights))
				ws = append(ws, weights[j])
				weights[j] = weights[len(weights)-1]
				weights = weights[:len(weights)-1]
			}
			want := 0
			for _, w := range ws {
				if _, ok := ora[w]; ok {
					want++
				}
				delete(ora, w)
			}
			if got := o.DeleteBatch(ws); got != want {
				t.Fatalf("op %d: DeleteBatch = %d, want %d", op, got, want)
			}
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
	st := o.Stats()
	if st.Rebuilds != 0 {
		t.Fatalf("buffered policy ran %d global rebuilds; it must never", st.Rebuilds)
	}
	if st.Flushes == 0 || st.PartialRebuilds == 0 {
		t.Fatalf("stats %+v: churn should have flushed and partially rebuilt", st)
	}
	for _, k := range []int{1, 3, 17, len(ora) + 5} {
		got := weightsOf(o.TopK(nil, math.Inf(1), k))
		sameWeights(t, got, ora.topK(math.Inf(1), k), "final TopK")
	}
}

// TestBufferedInvariants checks the tiered-run shape: every run fits its
// slot and its tier, no tier holds tierFan runs at rest, and insert-only
// load never triggers a global rebuild.
func TestBufferedInvariants(t *testing.T) {
	o := newOverlayWith(t, PolicyBuffered, 4)
	m := o.maint.(*bufMaintainer[float64, float64])
	const n = 3000
	for i := 0; i < n; i++ {
		if err := o.Insert(item(float64(i%97), float64(i))); err != nil {
			t.Fatal(err)
		}
		if len(o.tail) >= o.opts.TailCap {
			t.Fatalf("after insert %d: tail has %d ≥ TailCap %d", i, len(o.tail), o.opts.TailCap)
		}
		perTier := map[int]int{}
		for j, lvl := range o.levels {
			if lvl == nil {
				continue
			}
			tier, ok := m.tier[j]
			if !ok {
				t.Fatalf("after insert %d: slot %d has no tier record", i, j)
			}
			if len(lvl.items) > o.capOf(j) {
				t.Fatalf("after insert %d: slot %d holds %d > slot cap %d", i, j, len(lvl.items), o.capOf(j))
			}
			if len(lvl.items) > m.tierCap(tier) {
				t.Fatalf("after insert %d: slot %d holds %d > tier %d cap %d", i, j, len(lvl.items), tier, m.tierCap(tier))
			}
			perTier[tier]++
		}
		for tier, count := range perTier {
			if count >= tierFan {
				t.Fatalf("after insert %d: tier %d holds %d runs at rest (max %d)", i, tier, count, tierFan-1)
			}
		}
	}
	st := o.Stats()
	if st.Rebuilds != 0 {
		t.Fatalf("insert-only load triggered %d global rebuilds", st.Rebuilds)
	}
	if st.PartialRebuilds == 0 {
		t.Fatal("no tier merges over 3000 inserts")
	}
	if st.Live != n || st.Inserts != n {
		t.Fatalf("stats: %+v, want Live=Inserts=%d", st, n)
	}
	// The rebuild amplification is the policy's point: each item is built
	// ~log₄(n/TailCap) times, strictly less than the logarithmic method's
	// ~log₂(n/TailCap) on the same sequence.
	lo := newOverlayWith(t, PolicyLogarithmic, 4)
	for i := 0; i < n; i++ {
		if err := lo.Insert(item(float64(i%97), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	logAmp := float64(lo.Stats().BuiltItems) / float64(n)
	bufAmp := float64(st.BuiltItems) / float64(n)
	if bufAmp >= logAmp {
		t.Fatalf("buffered rebuild amplification %.2f ≥ logarithmic %.2f", bufAmp, logAmp)
	}
}

// TestInsertBatchMatchesSingles: a bulk load and the same items inserted
// one at a time must answer identically under both policies.
func TestInsertBatchMatchesSingles(t *testing.T) {
	for _, pol := range []MaintenancePolicy{PolicyLogarithmic, PolicyBuffered} {
		t.Run(pol.ID(), func(t *testing.T) {
			rng := wrand.New(3)
			var items []core.Item[float64]
			for i := 0; i < 500; i++ {
				items = append(items, item(rng.Float64()*100, float64(i)))
			}
			single := newOverlayWith(t, pol, 8)
			for _, it := range items {
				if err := single.Insert(it); err != nil {
					t.Fatal(err)
				}
			}
			bulk := newOverlayWith(t, pol, 8)
			if err := bulk.InsertBatch(items); err != nil {
				t.Fatal(err)
			}
			if bulk.N() != single.N() {
				t.Fatalf("bulk N = %d, single N = %d", bulk.N(), single.N())
			}
			for _, q := range []float64{10, 55, 100} {
				for _, k := range []int{1, 7, 50} {
					sameWeights(t, weightsOf(bulk.TopK(nil, q, k)), weightsOf(single.TopK(nil, q, k)), "bulk vs single TopK")
				}
			}
		})
	}
}

// TestInsertBatchValidation: the batch is atomic — any invalid item
// rejects the whole batch with the same error strings as Insert.
func TestInsertBatchValidation(t *testing.T) {
	o := newOverlayWith(t, PolicyLogarithmic, 8)
	if err := o.Insert(item(1, 5)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		batch []core.Item[float64]
	}{
		{"nan", []core.Item[float64]{item(1, 10), item(1, math.NaN())}},
		{"inf", []core.Item[float64]{item(1, math.Inf(-1))}},
		{"dup in batch", []core.Item[float64]{item(1, 10), item(2, 10)}},
		{"dup vs live", []core.Item[float64]{item(1, 10), item(2, 5)}},
	}
	for _, tc := range cases {
		if err := o.InsertBatch(tc.batch); err == nil {
			t.Fatalf("%s: batch accepted", tc.name)
		}
		if o.N() != 1 {
			t.Fatalf("%s: rejected batch mutated the overlay (N=%d)", tc.name, o.N())
		}
	}
	if err := o.InsertBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestInsertBatchCheaperThanSingles pins the bulk-ingest cost claim on a
// real block-allocating builder: m items via InsertBatch must charge
// fewer I/Os than the same m items inserted one at a time.
func TestInsertBatchCheaperThanSingles(t *testing.T) {
	for _, pol := range []MaintenancePolicy{PolicyLogarithmic, PolicyBuffered} {
		t.Run(pol.ID(), func(t *testing.T) {
			run := func(bulk bool) int64 {
				tr := em.NewTracker(em.Config{B: 64, MemBlocks: 8})
				var init []core.Item[interval.Interval]
				for i := 0; i < 1024; i++ {
					init = append(init, ivItem(float64(i), float64(i+10), float64(i)))
				}
				o, err := New(init, interval.Match[interval.Interval], intervalBuilder(tr),
					Options{Tracker: tr, TailCap: 64, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				var batch []core.Item[interval.Interval]
				for i := 1024; i < 3072; i++ {
					batch = append(batch, ivItem(float64(i), float64(i+10), float64(i)))
				}
				tr.ResetCounters()
				if bulk {
					if err := o.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, it := range batch {
						if err := o.Insert(it); err != nil {
							t.Fatal(err)
						}
					}
				}
				return tr.Stats().IOs()
			}
			singles, bulk := run(false), run(true)
			if bulk >= singles {
				t.Fatalf("InsertBatch cost %d I/Os ≥ %d for one-at-a-time inserts", bulk, singles)
			}
		})
	}
}

// TestBufferedExportRestoreRoundTrip: a buffered overlay round-trips
// through State with its policy, tier map and counters intact.
func TestBufferedExportRestoreRoundTrip(t *testing.T) {
	rng := wrand.New(5)
	o := newOverlayWith(t, PolicyBuffered, 4)
	ora := oracle{}
	for i := 0; i < 300; i++ {
		w := float64(i + 1)
		v := rng.Float64() * 50
		if err := o.Insert(item(v, w)); err != nil {
			t.Fatal(err)
		}
		ora[w] = v
	}
	for w := 10.0; w < 100; w += 7 {
		o.DeleteWeight(w)
		delete(ora, w)
	}

	st := o.ExportState()
	if st.PolicyID != PolicyBuffered.ID() {
		t.Fatalf("exported policy %q, want %q", st.PolicyID, PolicyBuffered.ID())
	}
	if len(st.Tiers) != len(st.Levels) {
		t.Fatalf("%d tier records for %d levels", len(st.Tiers), len(st.Levels))
	}

	r, err := Restore[float64, float64](st, thresholdMatch, scanBuilder(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy() != PolicyBuffered {
		t.Fatalf("restored policy %v, want buffered", r.Policy())
	}
	if os, rs := o.Stats(), r.Stats(); os != rs {
		t.Fatalf("stats diverge:\n  orig     %+v\n  restored %+v", os, rs)
	}
	for _, q := range []float64{1, 25, 49} {
		sameWeights(t, weightsOf(r.TopK(nil, q, 9)), weightsOf(o.TopK(nil, q, 9)), "restored TopK")
	}
	// The restored overlay keeps maintaining under the same policy.
	for i := 1000; i < 1300; i++ {
		if err := r.Insert(item(float64(i%50), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if rs := r.Stats(); rs.Rebuilds != 0 {
		t.Fatalf("restored buffered overlay globally rebuilt: %+v", rs)
	}
}

// TestRestoreRejectsCorruptTiers extends the corrupt-state table with the
// policy-record invariants.
func TestRestoreRejectsCorruptTiers(t *testing.T) {
	o := newOverlayWith(t, PolicyBuffered, 4)
	for i := 0; i < 200; i++ {
		if err := o.Insert(item(float64(i%31), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	base := o.ExportState()
	if len(base.Tiers) < 2 {
		t.Fatalf("base state has %d tier records; test needs ≥ 2", len(base.Tiers))
	}

	cases := []struct {
		name    string
		mutate  func(*State[float64])
		wantSub string
	}{
		{"unknown policy", func(st *State[float64]) { st.PolicyID = "lsm" }, "unknown maintenance policy"},
		{"missing tier record", func(st *State[float64]) { st.Tiers = st.Tiers[1:] }, "no tier record"},
		{"duplicate tier record", func(st *State[float64]) { st.Tiers = append(st.Tiers, st.Tiers[0]) }, "two tier records"},
		{"tier out of range", func(st *State[float64]) { st.Tiers[0].Tier = -1 }, "out of range"},
		{"orphan tier record", func(st *State[float64]) {
			st.Tiers = append(st.Tiers, TierRef{Slot: 59, Tier: 0})
		}, "do not match"},
		{"run over tier capacity", func(st *State[float64]) {
			big := -1
			for i, ls := range st.Levels {
				if len(ls.Items) > 4*tierFan { // larger than tier 0 allows at TailCap 4
					big = i
				}
			}
			if big < 0 {
				panic("no level larger than tier-0 capacity")
			}
			for i := range st.Tiers {
				if st.Tiers[i].Slot == st.Levels[big].Slot {
					st.Tiers[i].Tier = 0
				}
			}
		}, "capacity"},
		{"tiers under logarithmic", func(st *State[float64]) { st.PolicyID = PolicyLogarithmic.ID() }, "logarithmic policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := cloneState(base)
			st.PolicyID = base.PolicyID
			st.Tiers = append([]TierRef(nil), base.Tiers...)
			tc.mutate(&st)
			_, err := Restore[float64, float64](st, thresholdMatch, scanBuilder(nil), Options{})
			if err == nil {
				t.Fatal("corrupt state accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestPolicyAnswerEquivalence drives identical op sequences through both
// policies and a full-scan oracle; every answer must be identical.
func TestPolicyAnswerEquivalence(t *testing.T) {
	rng := wrand.New(23)
	lg := newOverlayWith(t, PolicyLogarithmic, 8)
	bf := newOverlayWith(t, PolicyBuffered, 8)
	ora := oracle{}
	var weights []float64
	nextW := 0.0
	for op := 0; op < 4000; op++ {
		switch r := rng.Float64(); {
		case r < 0.5:
			nextW++
			v := rng.Float64() * 100
			if err := lg.Insert(item(v, nextW)); err != nil {
				t.Fatal(err)
			}
			if err := bf.Insert(item(v, nextW)); err != nil {
				t.Fatal(err)
			}
			ora[nextW] = v
			weights = append(weights, nextW)
		case r < 0.7 && len(weights) > 0:
			i := rng.IntN(len(weights))
			w := weights[i]
			weights[i] = weights[len(weights)-1]
			weights = weights[:len(weights)-1]
			lg.DeleteWeight(w)
			bf.DeleteWeight(w)
			delete(ora, w)
		default:
			q := rng.Float64() * 100
			k := 1 + rng.IntN(6)
			want := ora.topK(q, k)
			sameWeights(t, weightsOf(lg.TopK(nil, q, k)), want, "logarithmic")
			sameWeights(t, weightsOf(bf.TopK(nil, q, k)), want, "buffered")
		}
	}
	a, b := weightsOf(lg.Items()), weightsOf(bf.Items())
	sort.Float64s(a)
	sort.Float64s(b)
	sameWeights(t, a, b, "Items")
}
