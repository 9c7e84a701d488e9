package topk

import (
	"bytes"
	"testing"
)

// Fuzz targets: an op-sequence decoder turns arbitrary bytes into a
// bounded Insert/Delete/Query program, executed simultaneously against a
// dynamic index and a brute-force oracle; any divergence is a bug. The
// first byte picks the reduction, so the corpus explores the overlay over
// WorstCase/BinarySearch/Expected as well as the native dynamic paths.
// `make fuzz-smoke` runs both targets briefly in CI.

const fuzzOpCap = 200

// fuzzReduction maps a byte to a reduction, never FullScan (the oracle
// itself) to keep the diff meaningful.
func fuzzReduction(b byte) Reduction {
	switch b % 3 {
	case 0:
		return Expected
	case 1:
		return WorstCase
	}
	return BinarySearch
}

// fuzzByte streams data cyclically; ok goes false once every byte has
// been consumed at least once, capping the program length.
type fuzzProg struct {
	data []byte
	pos  int
}

func (p *fuzzProg) next() (byte, bool) {
	if len(p.data) == 0 || p.pos >= len(p.data) || p.pos >= fuzzOpCap {
		return 0, false
	}
	b := p.data[p.pos]
	p.pos++
	return b, true
}

// coord turns one byte into a small float coordinate.
func coord(b byte) float64 { return float64(b) / 4 }

func FuzzDynamicInterval(f *testing.F) {
	f.Add([]byte{0, 10, 20, 30, 7, 3, 255, 1, 2, 3, 4, 90})
	f.Add([]byte{1, 200, 100, 50, 25, 12, 6, 3})
	f.Add([]byte{2, 0, 0, 0, 3, 3, 3, 7, 7, 7, 11, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ix, err := NewIntervalIndex([]IntervalItem[int]{},
			WithReduction(fuzzReduction(data[0])), WithUpdates(), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		prog := &fuzzProg{data: data[1:]}
		geo := map[float64][2]float64{}
		var order []float64
		w := 0.0
		for {
			op, ok := prog.next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0, 1: // insert
				a, _ := prog.next()
				b, _ := prog.next()
				lo, span := coord(a), coord(b)
				w++
				if err := ix.Insert(IntervalItem[int]{Lo: lo, Hi: lo + span, Weight: w}); err != nil {
					t.Fatalf("insert %v: %v", w, err)
				}
				geo[w] = [2]float64{lo, lo + span}
				order = append(order, w)
			case 2: // delete
				if len(order) == 0 {
					continue
				}
				b, _ := prog.next()
				i := int(b) % len(order)
				dw := order[i]
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
				if ok, err := ix.Delete(dw); err != nil || !ok {
					t.Fatalf("delete %v: (%v, %v)", dw, ok, err)
				}
				delete(geo, dw)
			default: // query
				a, _ := prog.next()
				b, _ := prog.next()
				x := coord(a)
				k := 1 + int(b)%6
				got := intervalWeights(ix.TopK(x, k))
				var in []float64
				for iw, s := range geo {
					if s[0] <= x && x <= s[1] {
						in = append(in, iw)
					}
				}
				want := topWeights(in, k)
				if !sameFloats(got, want) {
					t.Fatalf("x=%v k=%d: got %v, oracle %v", x, k, got, want)
				}
			}
			if ix.Len() != len(geo) {
				t.Fatalf("Len() = %d, oracle %d", ix.Len(), len(geo))
			}
		}
	})
}

// FuzzShardedInterval diffs a sharded interval index against an
// unsharded one over random op sequences: the single engine is the
// oracle, so any fan-out/merge or update-routing divergence — wrong
// order, wrong owner, lost item — fails immediately. The second byte
// picks the shard count and placement policy.
func FuzzShardedInterval(f *testing.F) {
	f.Add([]byte{0, 3, 10, 20, 30, 7, 3, 255, 1, 2, 3, 4, 90})
	f.Add([]byte{1, 8, 200, 100, 50, 25, 12, 6, 3})
	f.Add([]byte{2, 0, 0, 0, 0, 3, 3, 3, 7, 7, 7, 11, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := fuzzReduction(data[0])
		shards := 1 + int(data[1])%8
		policy := ShardByWeight
		if data[1]&0x80 != 0 {
			policy = ShardRoundRobin
		}
		sharded, err := newShardedIntervals([]IntervalItem[int]{}, shards,
			WithReduction(r), WithUpdates(), WithSeed(1), WithShardPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewIntervalIndex([]IntervalItem[int]{},
			WithReduction(r), WithUpdates(), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		prog := &fuzzProg{data: data[2:]}
		var order []float64
		w := 0.0
		for {
			op, ok := prog.next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0, 1: // insert
				a, _ := prog.next()
				b, _ := prog.next()
				lo, span := coord(a), coord(b)
				w++
				it := IntervalItem[int]{Lo: lo, Hi: lo + span, Weight: w}
				if err := sharded.Insert(it); err != nil {
					t.Fatalf("sharded insert %v: %v", w, err)
				}
				if err := single.Insert(it); err != nil {
					t.Fatalf("single insert %v: %v", w, err)
				}
				order = append(order, w)
			case 2: // delete
				if len(order) == 0 {
					continue
				}
				b, _ := prog.next()
				i := int(b) % len(order)
				dw := order[i]
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
				okA, errA := sharded.Delete(dw)
				okB, errB := single.Delete(dw)
				if okA != okB || errA != nil || errB != nil {
					t.Fatalf("delete %v: sharded (%v, %v), single (%v, %v)", dw, okA, errA, okB, errB)
				}
			default: // query
				a, _ := prog.next()
				b, _ := prog.next()
				x := coord(a)
				k := 1 + int(b)%6
				got := intervalWeights(sharded.TopK(x, k))
				want := intervalWeights(single.TopK(x, k))
				if !sameFloats(got, want) {
					t.Fatalf("x=%v k=%d shards=%d %v: sharded %v, single %v", x, k, shards, policy, got, want)
				}
			}
			if sharded.Len() != single.Len() {
				t.Fatalf("Len: sharded %d, single %d", sharded.Len(), single.Len())
			}
		}
	})
}

func FuzzDynamicDominance(f *testing.F) {
	f.Add([]byte{0, 5, 6, 7, 3, 50, 60, 70, 255, 40, 40, 40, 2})
	f.Add([]byte{1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{2, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ix, err := NewDominanceIndex([]DominanceItem[int]{},
			WithReduction(fuzzReduction(data[0])), WithUpdates(), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		prog := &fuzzProg{data: data[1:]}
		pts := map[float64][3]float64{}
		var order []float64
		w := 0.0
		for {
			op, ok := prog.next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0, 1: // insert
				a, _ := prog.next()
				b, _ := prog.next()
				c, _ := prog.next()
				p := [3]float64{coord(a), coord(b), coord(c)}
				w++
				if err := ix.Insert(DominanceItem[int]{X: p[0], Y: p[1], Z: p[2], Weight: w}); err != nil {
					t.Fatalf("insert %v: %v", w, err)
				}
				pts[w] = p
				order = append(order, w)
			case 2: // delete
				if len(order) == 0 {
					continue
				}
				b, _ := prog.next()
				i := int(b) % len(order)
				dw := order[i]
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
				if ok, err := ix.Delete(dw); err != nil || !ok {
					t.Fatalf("delete %v: (%v, %v)", dw, ok, err)
				}
				delete(pts, dw)
			default: // query
				a, _ := prog.next()
				b, _ := prog.next()
				c, _ := prog.next()
				d, _ := prog.next()
				q := [3]float64{coord(a), coord(b), coord(c)}
				k := 1 + int(d)%6
				got := weightsOf(ix.TopK(q[0], q[1], q[2], k),
					func(it DominanceItem[int]) float64 { return it.Weight })
				var in []float64
				for iw, p := range pts {
					if p[0] <= q[0] && p[1] <= q[1] && p[2] <= q[2] {
						in = append(in, iw)
					}
				}
				want := topWeights(in, k)
				if !sameFloats(got, want) {
					t.Fatalf("q=%v k=%d: got %v, oracle %v", q, k, got, want)
				}
			}
			if ix.Len() != len(pts) {
				t.Fatalf("Len() = %d, oracle %d", ix.Len(), len(pts))
			}
		}
	})
}

// FuzzSnapshotRestore feeds arbitrary bytes to the snapshot decoder: a
// restore must either fail with an error or produce a working index —
// it must never panic, hang, or over-allocate. The seed corpus holds
// valid snapshots (static and overlay) so mutation explores the format's
// interior, not just its magic-number gate.
func FuzzSnapshotRestore(f *testing.F) {
	seedItems := []IntervalItem[int]{
		{Lo: 0, Hi: 10, Weight: 1, Data: 1},
		{Lo: 5, Hi: 15, Weight: 2, Data: 2},
		{Lo: 8, Hi: 20, Weight: 3, Data: 3},
	}
	for _, opts := range [][]Option{
		nil,
		{WithUpdates()},
		{WithReduction(Expected)},
	} {
		ix, err := NewIntervalIndex(seedItems, opts...)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("TKSN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := RestoreIntervalIndex[int](bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		// A restore that succeeds must hand back a usable index.
		ix.TopK(7, 3)
		ix.Max(7)
		_ = ix.Stats()
	})
}
