package dynamic

import (
	"strings"
	"testing"

	"topk/internal/core"
	"topk/internal/em"
)

// agedOverlay builds an overlay with a nontrivial shape: several levels,
// a partial tail, and tombstones (including a deleted-then-reinserted
// weight, the delete/reinsert aliasing case Restore must handle).
func agedOverlay(t *testing.T) (*Overlay[float64, float64], oracle) {
	t.Helper()
	tr := em.NewTracker(em.DefaultConfig())
	o, err := New[float64, float64](nil, thresholdMatch, scanBuilder(tr), Options{Tracker: tr, TailCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	orc := oracle{}
	for i := 0; i < 40; i++ {
		w := float64(i + 1)
		v := float64(i % 10)
		if err := o.Insert(item(v, w)); err != nil {
			t.Fatal(err)
		}
		orc[w] = v
	}
	// Tombstone a few baked-in weights, then reinsert one of them so the
	// same weight is dead in one level and live elsewhere.
	for _, w := range []float64{3, 7, 11} {
		if !o.DeleteWeight(w) {
			t.Fatalf("delete %v failed", w)
		}
		delete(orc, w)
	}
	if err := o.Insert(item(2.5, 7)); err != nil {
		t.Fatal(err)
	}
	orc[7] = 2.5
	return o, orc
}

func TestExportRestoreRoundTrip(t *testing.T) {
	o, orc := agedOverlay(t)
	st := o.ExportState()

	tr2 := em.NewTracker(em.DefaultConfig())
	r, err := Restore[float64, float64](st, thresholdMatch, scanBuilder(tr2), Options{Tracker: tr2})
	if err != nil {
		t.Fatal(err)
	}

	if r.N() != o.N() {
		t.Fatalf("restored N = %d, want %d", r.N(), o.N())
	}
	os, rs := o.Stats(), r.Stats()
	if os != rs {
		t.Fatalf("stats diverge:\n  orig     %+v\n  restored %+v", os, rs)
	}
	for _, q := range []float64{-1, 2.5, 5, 9, 100} {
		for _, k := range []int{1, 3, 10, 100} {
			got := weightsOf(r.TopK(nil, q, k))
			want := weightsOf(o.TopK(nil, q, k))
			sameWeights(t, got, want, "restored TopK")
			sameWeights(t, want, orc.topK(q, k), "original TopK vs oracle")
		}
	}

	// The restored overlay must keep working as a dynamic structure.
	if err := r.Insert(item(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if !r.DeleteWeight(1000) {
		t.Fatal("restored overlay lost track of an inserted weight")
	}
	if r.DeleteWeight(3) {
		t.Fatal("restored overlay resurrected tombstoned weight 3")
	}
	if !r.DeleteWeight(7) {
		t.Fatal("reinserted weight 7 should be live after restore")
	}
}

func TestExportStateIsDetached(t *testing.T) {
	o, _ := agedOverlay(t)
	st := o.ExportState()
	before := len(st.Tail)
	if err := o.Insert(item(0, 500)); err != nil {
		t.Fatal(err)
	}
	if len(st.Tail) != before {
		t.Fatal("exported state aliases the live tail")
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	o, _ := agedOverlay(t)
	base := o.ExportState()

	cases := []struct {
		name    string
		mutate  func(*State[float64])
		wantSub string
	}{
		{"negative tail cap", func(st *State[float64]) { st.TailCap = -1 }, "negative tail capacity"},
		{"bad dead fraction", func(st *State[float64]) { st.DeadFrac = 1.5 }, "dead fraction"},
		{"overfull tail", func(st *State[float64]) {
			for i := 0; i < st.TailCap+1; i++ {
				st.Tail = append(st.Tail, item(0, 9000+float64(i)))
			}
		}, "tail holds"},
		{"negative slot", func(st *State[float64]) { st.Levels[0].Slot = -1 }, "out of range"},
		{"duplicate slot", func(st *State[float64]) { st.Levels[0].Slot = st.Levels[len(st.Levels)-1].Slot }, "appears twice"},
		{"level over capacity", func(st *State[float64]) { st.Levels[len(st.Levels)-1].Slot = 0 }, "capacity"},
		{"empty level", func(st *State[float64]) { st.Levels[0].Items = nil }, "empty"},
		{"NaN weight", func(st *State[float64]) { st.Levels[0].Items[0].Weight = nan() }, "non-finite"},
		{"duplicate weight in level", func(st *State[float64]) {
			st.Levels[0].Items[1].Weight = st.Levels[0].Items[0].Weight
		}, "appears twice in level"},
		{"duplicate live weight across levels", func(st *State[float64]) {
			a, b := st.Levels[0], st.Levels[len(st.Levels)-1]
			a.Items[liveIndex(a)].Weight = b.Items[liveIndex(b)].Weight
		}, "live in two places"},
		{"orphan tombstone", func(st *State[float64]) { st.Levels[0].Dead = append(st.Levels[0].Dead, 1e18) }, "not an item"},
		{"fully dead level", func(st *State[float64]) {
			lvl := &st.Levels[0]
			lvl.Dead = lvl.Dead[:0]
			for _, it := range lvl.Items {
				lvl.Dead = append(lvl.Dead, it.Weight)
			}
		}, "entirely dead"},
		{"tail duplicates level weight", func(st *State[float64]) {
			lvl := st.Levels[0]
			st.Tail = append(st.Tail[:0], item(0, lvl.Items[liveIndex(lvl)].Weight))
		}, "live in two places"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := cloneState(base)
			tc.mutate(&st)
			tr := em.NewTracker(em.DefaultConfig())
			_, err := Restore[float64, float64](st, thresholdMatch, scanBuilder(tr), Options{Tracker: tr})
			if err == nil {
				t.Fatal("corrupt state accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// liveIndex returns the index of some non-tombstoned item in the level.
func liveIndex(ls LevelState[float64]) int {
	dead := make(map[float64]struct{}, len(ls.Dead))
	for _, w := range ls.Dead {
		dead[w] = struct{}{}
	}
	for i, it := range ls.Items {
		if _, gone := dead[it.Weight]; !gone {
			return i
		}
	}
	panic("level entirely dead")
}

func nan() float64 {
	z := 0.0
	return z / z
}

func cloneState(st State[float64]) State[float64] {
	out := st
	out.Tail = append([]core.Item[float64](nil), st.Tail...)
	out.Levels = make([]LevelState[float64], len(st.Levels))
	for i, ls := range st.Levels {
		out.Levels[i] = LevelState[float64]{
			Slot:  ls.Slot,
			Items: append([]core.Item[float64](nil), ls.Items...),
			Dead:  append([]float64(nil), ls.Dead...),
		}
	}
	return out
}
