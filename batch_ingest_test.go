package topk

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// This file is the bulk-ingest conformance suite: the batch update path
// (InsertBatch/DeleteBatch) must be observationally identical to the
// single-item path — same answers, same error strings, same atomicity —
// on every engine kind, under both maintenance policies, sharded or not.

// wireItems generates m deterministic /ingest wire-format items for one
// registered problem, with weights far above every build-generated one.
func wireItems(t *testing.T, name string, m int) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, m)
	for i := 0; i < m; i++ {
		w := 2e6 + float64(i)
		x := float64(i%37) * 2.6
		y := float64(i%23) * 4.1
		z := float64(i%11) * 7.9
		var s string
		switch name {
		case "interval":
			s = fmt.Sprintf(`{"lo": %g, "hi": %g, "weight": %g}`, x, x+10, w)
		case "range":
			s = fmt.Sprintf(`{"pos": %g, "weight": %g}`, x, w)
		case "ortho", "circular":
			s = fmt.Sprintf(`{"coords": [%g, %g], "weight": %g}`, x, y, w)
		case "halfspace":
			s = fmt.Sprintf(`{"coords": [%g, %g, %g], "weight": %g}`, x, y, z, w)
		case "dominance":
			s = fmt.Sprintf(`{"x": %g, "y": %g, "z": %g, "weight": %g}`, x, y, z, w)
		case "enclosure":
			s = fmt.Sprintf(`{"x1": %g, "x2": %g, "y1": %g, "y2": %g, "weight": %g}`, x, x+4, y, y+6, w)
		case "halfplane":
			s = fmt.Sprintf(`{"x": %g, "y": %g, "weight": %g}`, x, y, w)
		default:
			t.Fatalf("no wire item generator for problem %q", name)
		}
		out[i] = json.RawMessage(s)
	}
	return out
}

// decodeAll runs a served index's own item decoder over the wire batch.
func decodeAll(t *testing.T, sv Served, raw []json.RawMessage) []any {
	t.Helper()
	items := make([]any, len(raw))
	for i, r := range raw {
		it, err := sv.DecodeItem(r)
		if err != nil {
			t.Fatalf("decoding %s: %v", r, err)
		}
		items[i] = it
	}
	return items
}

// TestConformanceBatchIngest checks, for every registered problem, that
// bulk ingest through a sharded index is observationally byte-identical
// to the same batch through an unsharded one: same answers, same delete
// counts, same final sizes.
func TestConformanceBatchIngest(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		for _, pol := range []MaintenancePolicy{PolicyLogarithmic, PolicyBuffered} {
			t.Run(fmt.Sprintf("%s/%v", spec.Name, pol), func(t *testing.T) {
				opts := []Option{WithUpdates(), WithMaintenancePolicy(pol)}
				single, err := spec.Build(confN, confSeed, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sharded, err := spec.BuildSharded(confN, 3, confSeed, opts...)
				if err != nil {
					t.Fatal(err)
				}

				raw := wireItems(t, spec.Name, 60)
				if err := single.InsertBatch(decodeAll(t, single, raw)); err != nil {
					t.Fatalf("unsharded InsertBatch: %v", err)
				}
				if err := sharded.InsertBatch(decodeAll(t, sharded, raw)); err != nil {
					t.Fatalf("sharded InsertBatch: %v", err)
				}
				if single.Len() != confN+60 || sharded.Len() != confN+60 {
					t.Fatalf("Len after batch: unsharded %d, sharded %d, want %d", single.Len(), sharded.Len(), confN+60)
				}

				qs := single.GenQueries(8, confQSeed)
				if got, want := answersOf(sharded, qs), answersOf(single, qs); !reflect.DeepEqual(got, want) {
					t.Fatal("sharded batch ingest diverges from unsharded")
				}

				// Batch delete: half the new weights, one duplicate in the
				// request, and one weight that was never inserted.
				dels := []float64{2e6, 2e6 + 1, 2e6 + 2, 2e6 + 2, 2e6 - 0.5}
				for i := 0; i < 27; i++ {
					dels = append(dels, 2e6+30+float64(i))
				}
				n1, err := single.DeleteBatch(dels)
				if err != nil {
					t.Fatalf("unsharded DeleteBatch: %v", err)
				}
				n2, err := sharded.DeleteBatch(dels)
				if err != nil {
					t.Fatalf("sharded DeleteBatch: %v", err)
				}
				if n1 != 30 || n2 != 30 {
					t.Fatalf("DeleteBatch found %d unsharded, %d sharded, want 30", n1, n2)
				}
				if got, want := answersOf(sharded, qs), answersOf(single, qs); !reflect.DeepEqual(got, want) {
					t.Fatal("sharded batch delete diverges from unsharded")
				}
			})
		}
	}
}

// TestBatchMatchesSingleUpdates drives two identical overlay indexes —
// one through single Insert/Delete calls, one through the batch path —
// and requires identical answers and identical live sets afterwards.
func TestBatchMatchesSingleUpdates(t *testing.T) {
	for _, pol := range []MaintenancePolicy{PolicyLogarithmic, PolicyBuffered} {
		t.Run(pol.String(), func(t *testing.T) {
			mk := func() *IntervalIndex[int] {
				base := make([]IntervalItem[int], 32)
				for i := range base {
					base[i] = IntervalItem[int]{Lo: float64(i), Hi: float64(i + 8), Weight: float64(i) + 0.25, Data: i}
				}
				ix, err := NewIntervalIndex(base, WithUpdates(), WithReduction(WorstCase),
					WithBlockSize(4), WithMaintenancePolicy(pol))
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			fresh := make([]IntervalItem[int], 90)
			for i := range fresh {
				fresh[i] = IntervalItem[int]{Lo: float64(i) * 0.7, Hi: float64(i)*0.7 + 5, Weight: 500 + float64(i), Data: 500 + i}
			}

			one, batch := mk(), mk()
			for _, it := range fresh {
				if err := one.Insert(it); err != nil {
					t.Fatal(err)
				}
			}
			if err := batch.InsertBatch(fresh); err != nil {
				t.Fatal(err)
			}
			if got, want := intervalAnswers(batch), intervalAnswers(one); !reflect.DeepEqual(got, want) {
				t.Fatal("InsertBatch answers diverge from single Inserts")
			}

			dels := []float64{500, 510, 520, 530, 999.5}
			var n1 int
			for _, w := range dels {
				if ok, err := one.Delete(w); err != nil {
					t.Fatal(err)
				} else if ok {
					n1++
				}
			}
			n2, err := batch.DeleteBatch(dels)
			if err != nil {
				t.Fatal(err)
			}
			if n1 != n2 || n1 != 4 {
				t.Fatalf("deletes found: single %d, batch %d, want 4", n1, n2)
			}
			if got, want := intervalAnswers(batch), intervalAnswers(one); !reflect.DeepEqual(got, want) {
				t.Fatal("DeleteBatch answers diverge from single Deletes")
			}

			liveOf := func(ix *IntervalIndex[int]) []float64 {
				var ws []float64
				for _, it := range ix.Items() {
					ws = append(ws, it.Weight)
				}
				sort.Float64s(ws)
				return ws
			}
			if got, want := liveOf(batch), liveOf(one); !reflect.DeepEqual(got, want) {
				t.Fatal("live weight sets diverge between batch and single paths")
			}
		})
	}
}

// TestBatchErrorStringsMatchSingle pins the conformance rule that every
// ingest path — single or batch, sharded or not — rejects the same bad
// input with the same error string, and that a rejected batch inserts
// nothing.
func TestBatchErrorStringsMatchSingle(t *testing.T) {
	base := make([]IntervalItem[int], 16)
	for i := range base {
		base[i] = IntervalItem[int]{Lo: float64(i), Hi: float64(i + 4), Weight: float64(i) + 0.5, Data: i}
	}
	mkOne := func() *IntervalIndex[int] {
		ix, err := NewIntervalIndex(base, WithUpdates(), WithReduction(WorstCase))
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	mkSharded := func() *shardedIntervals {
		s, err := newShardedIntervals(base, 3, WithUpdates(), WithReduction(WorstCase))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dup := IntervalItem[int]{Lo: 1, Hi: 2, Weight: 3.5, Data: 99} // weight 3.5 is live
	okItem := IntervalItem[int]{Lo: 1, Hi: 2, Weight: 100, Data: 100}

	errOf := func(err error) string {
		if err == nil {
			t.Fatal("expected an error, got nil")
		}
		return err.Error()
	}
	want := errOf(mkOne().Insert(dup))
	if !strings.Contains(want, "duplicate weight 3.5") {
		t.Fatalf("single insert error = %q, want a duplicate-weight error", want)
	}
	if got := errOf(mkOne().InsertBatch([]IntervalItem[int]{okItem, dup})); got != want {
		t.Fatalf("unsharded batch error %q, single error %q", got, want)
	}
	if got := errOf(mkSharded().Insert(dup)); got != want {
		t.Fatalf("sharded single error %q, unsharded single error %q", got, want)
	}
	if got := errOf(mkSharded().InsertBatch([]IntervalItem[int]{okItem, dup})); got != want {
		t.Fatalf("sharded batch error %q, unsharded single error %q", got, want)
	}
	// A weight duplicated inside the batch itself reports the same way.
	inBatch := []IntervalItem[int]{okItem, {Lo: 0, Hi: 1, Weight: 100, Data: 101}}
	wantIn := fmt.Sprintf("topk: duplicate weight %v", 100.0)
	if got := errOf(mkOne().InsertBatch(inBatch)); got != wantIn {
		t.Fatalf("in-batch dup error %q, want %q", got, wantIn)
	}
	if got := errOf(mkSharded().InsertBatch(inBatch)); got != wantIn {
		t.Fatalf("sharded in-batch dup error %q, want %q", got, wantIn)
	}
	// Invalid geometry: same validation error either way.
	bad := IntervalItem[int]{Lo: 9, Hi: 2, Weight: 200}
	wantBad := errOf(mkOne().Insert(bad))
	if got := errOf(mkOne().InsertBatch([]IntervalItem[int]{okItem, bad})); got != wantBad {
		t.Fatalf("batch invalid-item error %q, single %q", got, wantBad)
	}
	if got := errOf(mkSharded().InsertBatch([]IntervalItem[int]{okItem, bad})); got != wantBad {
		t.Fatalf("sharded batch invalid-item error %q, single %q", got, wantBad)
	}

	// Atomicity: the rejected batches above never inserted their valid
	// members.
	one, sh := mkOne(), mkSharded()
	_ = one.InsertBatch([]IntervalItem[int]{okItem, dup})
	_ = sh.InsertBatch([]IntervalItem[int]{okItem, dup})
	if one.Len() != len(base) || sh.Len() != len(base) {
		t.Fatalf("rejected batch mutated the index: Len %d / %d, want %d", one.Len(), sh.Len(), len(base))
	}

	// Static builds refuse the batch path with the usual static error.
	st, err := NewIntervalIndex(base, WithReduction(WorstCase))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertBatch([]IntervalItem[int]{okItem}); err == nil || !strings.Contains(err.Error(), "static") {
		t.Fatalf("static InsertBatch error = %v, want static-index error", err)
	}
	if _, err := st.DeleteBatch([]float64{0.5}); err == nil || !strings.Contains(err.Error(), "static") {
		t.Fatalf("static DeleteBatch error = %v, want static-index error", err)
	}
}
