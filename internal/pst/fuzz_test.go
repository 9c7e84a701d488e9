package pst

import (
	"math"
	"testing"
)

// FuzzPSTOps drives random op sequences against a map oracle and the
// structural invariant checker. Each byte triple encodes one operation:
// insert, delete, get, or a query (prefix/suffix/range report above a
// threshold, max and count) diffed against the oracle. Keys come from 32
// values, so duplicated keys are the common case.
func FuzzPSTOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 2, 2, 1, 2})
	f.Add([]byte{0, 5, 5, 0, 5, 6, 1, 5, 5, 3, 5, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &Tree[int]{}
		oracle := map[Key]int{}
		for i := 0; i+2 < len(data); i += 3 {
			op, kb, wb := data[i]%4, data[i+1]%32, data[i+2]%32
			k := Key{K: float64(kb), W: float64(wb)}
			switch op {
			case 0:
				tr.Insert(k, i)
				oracle[k] = i
			case 1:
				_, want := oracle[k]
				if got := tr.Delete(k); got != want {
					t.Fatalf("Delete(%v) = %v, oracle %v", k, got, want)
				}
				delete(oracle, k)
			case 2:
				got, ok := get(tr, k)
				want, wok := oracle[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Get(%v) = (%v,%v), oracle (%v,%v)", k, got, ok, want, wok)
				}
			case 3:
				diffQueries(t, tr, oracle, float64(kb), float64(kb+wb/2), float64(wb))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("Len=%d oracle=%d", tr.Len(), len(oracle))
		}
		diffQueries(t, tr, oracle, 8, 20, 10)
	})
}

// diffQueries checks every query family at [lo, hi] and threshold tau.
func diffQueries(t *testing.T, tr *Tree[int], oracle map[Key]int, lo, hi, tau float64) {
	t.Helper()
	type family struct {
		name   string
		in     func(x float64) bool
		report func(func(Key, int) bool) (int, bool)
		max    func() (Key, int, bool)
		count  func() int
	}
	for _, fam := range []family{
		{"prefix", func(x float64) bool { return x <= lo },
			func(v func(Key, int) bool) (int, bool) { return tr.PrefixReportAbove(lo, tau, v) },
			func() (Key, int, bool) { return tr.PrefixMax(lo) },
			func() int { return tr.PrefixCount(lo) }},
		{"suffix", func(x float64) bool { return x >= lo },
			func(v func(Key, int) bool) (int, bool) { return tr.SuffixReportAbove(lo, tau, v) },
			func() (Key, int, bool) { return tr.SuffixMax(lo) },
			func() int { return tr.SuffixCount(lo) }},
		{"range", func(x float64) bool { return lo <= x && x <= hi },
			func(v func(Key, int) bool) (int, bool) { return tr.RangeReportAbove(lo, hi, tau, v) },
			func() (Key, int, bool) { return tr.RangeMax(lo, hi) },
			func() int { return tr.RangeCount(lo, hi) }},
	} {
		wantN, count := 0, 0
		best := Key{W: math.Inf(-1)}
		found := false
		for k := range oracle {
			if !fam.in(k.K) {
				continue
			}
			count++
			if k.W >= tau {
				wantN++
			}
			if !found || outranks(k, best) {
				best, found = k, true
			}
		}
		gotN := 0
		fam.report(func(k Key, v int) bool {
			if want, ok := oracle[k]; !ok || want != v || !fam.in(k.K) || k.W < tau {
				t.Fatalf("%s report emitted %v=%d, not in range above %v", fam.name, k, v, tau)
			}
			gotN++
			return true
		})
		if gotN != wantN {
			t.Fatalf("%s report [%v,%v] above %v: %d entries, want %d", fam.name, lo, hi, tau, gotN, wantN)
		}
		if k, v, ok := fam.max(); ok != found || (ok && (k != best || v != oracle[best])) {
			t.Fatalf("%s max = %v,%v,%v want %v,%v", fam.name, k, v, ok, best, found)
		}
		if got := fam.count(); got != count {
			t.Fatalf("%s count = %d, want %d", fam.name, got, count)
		}
	}
}
