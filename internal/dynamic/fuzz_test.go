package dynamic

import (
	"encoding/binary"
	"math"
	"testing"

	"topk/internal/core"
)

// FuzzOverlayPolicies drives one op sequence decoded from raw bytes
// through three structures at once — an overlay under PolicyLogarithmic,
// an overlay under PolicyBuffered, and a plain-map full-scan oracle —
// and requires byte-identical answers everywhere. Ops cover single and
// bulk inserts, single and bulk deletes, deletes of a query's heaviest
// live matches (which hollow out level tops, driving the query's second
// fetch and its τ-cut fallback), queries and export/restore.
func FuzzOverlayPolicies(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 200, 1, 201, 1, 202, 3, 0, 2, 200, 4, 50})
	f.Add([]byte{5, 5, 5, 1, 9, 2, 9, 5})
	f.Add([]byte{3, 23, 0, 3, 23, 10, 3, 23, 20, 3, 23, 30, 6, 7, 10, 6, 7, 10, 6, 7, 10, 5, 10, 2, 6, 7, 200, 5, 10, 2, 5, 200, 9})
	f.Add([]byte{1, 60, 1, 1, 62, 1, 3, 23, 0, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 5, 255, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		lg := mustOverlay(t, PolicyLogarithmic)
		bf := mustOverlay(t, PolicyBuffered)
		ora := oracle{}
		var weights []float64
		nextW := 0.0

		u8 := func(i int) uint64 {
			if i >= len(data) {
				return 0
			}
			return uint64(data[i])
		}
		u16 := func(i int) uint64 {
			if i+1 >= len(data) {
				return u8(i)
			}
			return uint64(binary.LittleEndian.Uint16(data[i : i+2]))
		}

		insert := func(v, w float64) {
			e1 := lg.Insert(item(v, w))
			e2 := bf.Insert(item(v, w))
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("Insert(%v): logarithmic err %v, buffered err %v", w, e1, e2)
			}
			if e1 == nil {
				ora[w] = v
				weights = append(weights, w)
			}
		}

		for i := 0; i < len(data); {
			op := data[i]
			i++
			switch op % 7 {
			case 0: // insert fresh
				nextW++
				insert(float64(u8(i))/3, nextW)
				i++
			case 1: // insert a possibly-colliding weight
				w := float64(u8(i) % 64)
				insert(float64(u8(i+1)), w)
				i += 2
			case 2: // delete targeted
				if len(weights) > 0 {
					w := weights[int(u16(i))%len(weights)]
					_, present := ora[w]
					d1 := lg.DeleteWeight(w)
					d2 := bf.DeleteWeight(w)
					if d1 != present || d2 != present {
						t.Fatalf("DeleteWeight(%v) = %v/%v, oracle %v", w, d1, d2, present)
					}
					delete(ora, w)
				}
				i += 2
			case 3: // bulk insert
				m := int(u8(i))%24 + 1
				i++
				batch := make([]core.Item[float64], 0, m)
				for j := 0; j < m; j++ {
					nextW++
					v := float64((int(u8(i))+j)%100) / 2
					batch = append(batch, item(v, nextW))
				}
				i++
				e1 := lg.InsertBatch(batch)
				e2 := bf.InsertBatch(batch)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("InsertBatch: %v vs %v", e1, e2)
				}
				if e1 == nil {
					for _, it := range batch {
						ora[it.Weight] = it.Value
						weights = append(weights, it.Weight)
					}
				}
			case 4: // bulk delete
				m := int(u8(i))%16 + 1
				i++
				ws := make([]float64, 0, m)
				want := 0
				for j := 0; j < m && len(weights) > 0; j++ {
					w := weights[(int(u16(i))+j*7)%len(weights)]
					ws = append(ws, w)
					if _, ok := ora[w]; ok {
						// ws may repeat a weight; only the first hit counts.
						dup := false
						for _, prev := range ws[:len(ws)-1] {
							if prev == w {
								dup = true
							}
						}
						if !dup {
							want++
						}
					}
					delete(ora, w)
				}
				i += 2
				d1 := lg.DeleteBatch(ws)
				d2 := bf.DeleteBatch(ws)
				if d1 != want || d2 != want {
					t.Fatalf("DeleteBatch(%v) = %d/%d, want %d", ws, d1, d2, want)
				}
			case 5: // query
				q := float64(u8(i)) / 2
				k := int(u8(i+1))%8 + 1
				i += 2
				want := ora.topK(q, k)
				sameWeights(t, weightsOf(lg.TopK(nil, q, k)), want, "logarithmic TopK")
				sameWeights(t, weightsOf(bf.TopK(nil, q, k)), want, "buffered TopK")
			case 6: // delete a query's heaviest live matches
				m := int(u8(i))%8 + 1
				q := float64(u8(i+1)) / 2
				i += 2
				for _, w := range ora.topK(q, m) {
					if !lg.DeleteWeight(w) || !bf.DeleteWeight(w) {
						t.Fatalf("DeleteWeight(%v) of a heaviest live match failed", w)
					}
					delete(ora, w)
				}
			}
			if lg.N() != len(ora) || bf.N() != len(ora) {
				t.Fatalf("N: logarithmic %d, buffered %d, oracle %d", lg.N(), bf.N(), len(ora))
			}
		}

		if st := bf.Stats(); st.Rebuilds != 0 {
			t.Fatalf("buffered overlay ran a global rebuild: %+v", st)
		}

		// Full sweep, then an export/restore round trip of both policies
		// must preserve every answer.
		wantAll := ora.topK(math.Inf(1), len(ora)+1)
		sameWeights(t, weightsOf(lg.TopK(nil, math.Inf(1), len(ora)+1)), wantAll, "final logarithmic")
		sameWeights(t, weightsOf(bf.TopK(nil, math.Inf(1), len(ora)+1)), wantAll, "final buffered")
		for name, o := range map[string]*Overlay[float64, float64]{"logarithmic": lg, "buffered": bf} {
			r, err := Restore[float64, float64](o.ExportState(), thresholdMatch, scanBuilder(nil), Options{})
			if err != nil {
				t.Fatalf("restore %s: %v", name, err)
			}
			if r.Policy() != o.Policy() {
				t.Fatalf("restore %s: policy %v", name, r.Policy())
			}
			sameWeights(t, weightsOf(r.TopK(nil, math.Inf(1), len(ora)+1)), wantAll, "restored "+name)
		}
	})
}

func mustOverlay(t *testing.T, pol MaintenancePolicy) *Overlay[float64, float64] {
	t.Helper()
	o, err := New(nil, thresholdMatch, scanBuilder(nil), Options{TailCap: 4, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return o
}
