package circular

import (
	"math"
	"testing"

	"topk/internal/core"
	"topk/internal/halfspace"
	"topk/internal/wrand"
)

func genData(g *wrand.RNG, n, d int) (pts [][]float64, ws []float64) {
	ws = g.UniqueFloats(n, 1e6)
	pts = make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = g.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts, ws
}

func randBall(g *wrand.RNG, d int) Ball {
	c := make([]float64, d)
	for j := range c {
		c[j] = g.NormFloat64() * 10
	}
	return Ball{Center: c, R: 2 + g.Float64()*15}
}

func TestLiftEquivalence(t *testing.T) {
	// The lifted halfspace must agree with the ball predicate exactly.
	g := wrand.New(1)
	for _, d := range []int{2, 3, 5} {
		for trial := 0; trial < 2000; trial++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = g.NormFloat64() * 10
			}
			b := randBall(g, d)
			if b.Contains(p) != LiftBall(b).Contains(Lift(p)) {
				t.Fatalf("d=%d: lifting disagrees for p=%v ball=%+v", d, p, b)
			}
		}
	}
}

// TestMatchIsLiftedContains pins Match to LiftBall(q).Contains(p)
// bit for bit, on random points and on points placed on the sphere, where
// the outcome turns on the last bit of rounding, and requires that Match
// allocates nothing.
func TestMatchIsLiftedContains(t *testing.T) {
	g := wrand.New(11)
	for _, d := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 500; trial++ {
			b := randBall(g, d)
			u := make([]float64, d)
			norm := 0.0
			for j := range u {
				u[j] = g.NormFloat64()
				norm += u[j] * u[j]
			}
			onSphere, random, axis := make([]float64, d), make([]float64, d), make([]float64, d)
			copy(axis, b.Center)
			axis[trial%d] += b.R
			for j := range u {
				onSphere[j] = b.Center[j] + b.R*u[j]/math.Sqrt(norm)
				random[j] = g.NormFloat64() * 10
			}
			for _, pt := range [][]float64{onSphere, random, axis} {
				p := Lift(pt)
				if got, want := Match(b, p), LiftBall(b).Contains(p); got != want {
					t.Fatalf("d=%d: Match(%+v, %v) = %v, LiftBall form %v", d, b, pt, got, want)
				}
			}
		}
	}
	b, p := Ball{Center: []float64{1, 1}, R: 5}, Lift([]float64{4, 5})
	if !Match(b, p) {
		t.Fatal("boundary point (4,5) excluded from the radius-5 ball around (1,1)")
	}
	if allocs := testing.AllocsPerRun(100, func() { Match(b, p) }); allocs != 0 {
		t.Fatalf("Match allocates %v objects per call, want 0", allocs)
	}
}

func TestLiftUnliftRoundTrip(t *testing.T) {
	p := []float64{3, -4, 5}
	l := Lift(p)
	if len(l.C) != 4 || l.C[3] != 9+16+25 {
		t.Fatalf("Lift = %v", l)
	}
	back := Unlift(l)
	for i := range p {
		if back[i] != p[i] {
			t.Fatalf("Unlift = %v, want %v", back, p)
		}
	}
}

func TestBoundaryPointsIncluded(t *testing.T) {
	// A point exactly at distance R is inside (closed ball).
	b := Ball{Center: []float64{0, 0}, R: 5}
	p := []float64{3, 4}
	if !b.Contains(p) {
		t.Fatal("boundary point excluded by Ball.Contains")
	}
	if !LiftBall(b).Contains(Lift(p)) {
		t.Fatal("boundary point excluded after lifting")
	}
}

func TestIndexAgainstOracle(t *testing.T) {
	g := wrand.New(2)
	for _, d := range []int{2, 3} {
		pts, ws := genData(g, 700, d)
		ix, err := NewIndex(pts, ws, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ix.N() != 700 {
			t.Fatalf("N = %d", ix.N())
		}
		for trial := 0; trial < 80; trial++ {
			b := randBall(g, d)
			tau := g.Float64() * 1.2e6

			var got []core.Item[halfspace.PtN]
			ix.ReportAbove(nil, b, tau, func(it core.Item[halfspace.PtN]) bool {
				got = append(got, it)
				return true
			})
			wantCount := 0
			bestW, anyB := math.Inf(-1), false
			for i, p := range pts {
				if b.Contains(p) {
					if ws[i] >= tau {
						wantCount++
					}
					if ws[i] > bestW {
						bestW, anyB = ws[i], true
					}
				}
			}
			if len(got) != wantCount {
				t.Fatalf("d=%d ball=%+v tau=%v: got %d, want %d", d, b, tau, len(got), wantCount)
			}
			for _, it := range got {
				if it.Weight < tau || !b.Contains(Unlift(it.Value)) {
					t.Fatalf("d=%d: emitted out-of-range item %+v", d, it)
				}
			}

			gm, gok := ix.MaxItem(nil, b)
			if anyB != gok || (gok && gm.Weight != bestW) {
				t.Fatalf("d=%d: max (%v,%v), want (%v,%v)", d, gm.Weight, gok, bestW, anyB)
			}
		}
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex([][]float64{{1, 2}}, []float64{1, 2}, 2, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewIndex([][]float64{{1, 2, 3}}, []float64{1}, 2, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := NewIndex([][]float64{{1, 2}, {3, 4}}, []float64{5, 5}, 2, nil); err == nil {
		t.Fatal("duplicate weights accepted")
	}
}

func TestFactories(t *testing.T) {
	g := wrand.New(3)
	pts, ws := genData(g, 200, 2)
	items := make([]core.Item[halfspace.PtN], len(pts))
	for i := range pts {
		items[i] = core.Item[halfspace.PtN]{Value: Lift(pts[i]), Weight: ws[i]}
	}
	p := NewPrioritizedFactory(2, nil)(items)
	m := NewMaxFactory(2, nil)(items)
	b := randBall(g, 2)
	count := 0
	p.ReportAbove(nil, b, math.Inf(-1), func(it core.Item[halfspace.PtN]) bool {
		if !Match(b, it.Value) {
			t.Fatalf("factory emitted non-matching item")
		}
		count++
		return true
	})
	want := 0
	for _, pt := range pts {
		if b.Contains(pt) {
			want++
		}
	}
	if count != want {
		t.Fatalf("factory prioritized: %d, want %d", count, want)
	}
	if _, ok := m.MaxItem(nil, b); ok != (want > 0) {
		t.Fatal("factory max disagrees with oracle emptiness")
	}
}

func TestDirectIndexAgainstLifted(t *testing.T) {
	g := wrand.New(4)
	for _, d := range []int{2, 3} {
		pts, ws := genData(g, 500, d)
		lifted, err := NewIndex(pts, ws, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := NewDirectIndex(pts, ws, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if direct.N() != 500 {
			t.Fatalf("N = %d", direct.N())
		}
		for trial := 0; trial < 80; trial++ {
			b := randBall(g, d)
			tau := g.Float64() * 1.2e6

			countL, countD := 0, 0
			lifted.ReportAbove(nil, b, tau, func(core.Item[halfspace.PtN]) bool { countL++; return true })
			direct.ReportAbove(nil, b, tau, func(it core.Item[halfspace.PtN]) bool {
				if !b.Contains(it.Value.C) || it.Weight < tau {
					t.Fatalf("direct emitted out-of-range item")
				}
				countD++
				return true
			})
			if countL != countD {
				t.Fatalf("d=%d: lifted reported %d, direct %d", d, countL, countD)
			}

			ml, okl := lifted.MaxItem(nil, b)
			md, okd := direct.MaxItem(nil, b)
			if okl != okd || (okl && ml.Weight != md.Weight) {
				t.Fatalf("d=%d: lifted max (%v,%v), direct (%v,%v)", d, ml.Weight, okl, md.Weight, okd)
			}
		}
	}
}

func TestBallClassifyBox(t *testing.T) {
	b := Ball{Center: []float64{0, 0}, R: 5}
	in, out := b.ClassifyBox([]float64{-1, -1}, []float64{1, 1})
	if !in || out {
		t.Errorf("nested box: in=%v out=%v", in, out)
	}
	in, out = b.ClassifyBox([]float64{10, 10}, []float64{12, 12})
	if in || !out {
		t.Errorf("distant box: in=%v out=%v", in, out)
	}
	in, out = b.ClassifyBox([]float64{3, 3}, []float64{6, 6})
	if in || out {
		t.Errorf("straddling box: in=%v out=%v", in, out)
	}
	// Box [4,6]²: nearest corner (4,4) is at distance √32 > 5 — outside.
	in, out = b.ClassifyBox([]float64{4, 4}, []float64{6, 6})
	if in || !out {
		t.Errorf("corner-outside box: in=%v out=%v", in, out)
	}
	// Box corner exactly at distance R: closed ball, still inside.
	in, _ = b.ClassifyBox([]float64{3, 4}, []float64{3, 4})
	if !in {
		t.Error("boundary point box not inside closed ball")
	}
}
