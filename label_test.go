package topk

import (
	"fmt"
	"math"
	"testing"

	"topk/internal/wrand"
)

func checkFixed3(t *testing.T, x float64) {
	t.Helper()
	if got, want := string(appendFixed3(nil, x)), fmt.Sprintf("%.3f", x); got != want {
		t.Fatalf("appendFixed3(%v) [bits %#x] = %q, fmt prints %q", x, math.Float64bits(x), got, want)
	}
}

// TestFixed3MatchesFmt checks the label formatter against fmt on the
// inputs where rounding is delicate: the exact ties k/2000 and k/16000
// and their neighbours one ulp away, zeros, the fallback's edge, random
// bit patterns and the coordinates the registry's workloads draw.
func TestFixed3MatchesFmt(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0.0005, -0.0005, 0.0625, 0.1875,
		4e12, math.Nextafter(4e12, 0), -4e12, 1e300, 5e-324, -5e-324,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64} {
		checkFixed3(t, x)
	}
	for k := -40000; k <= 40000; k++ {
		for _, x := range []float64{float64(k) / 2000, float64(k) / 16000} {
			checkFixed3(t, x)
			checkFixed3(t, math.Nextafter(x, math.Inf(1)))
			checkFixed3(t, math.Nextafter(x, math.Inf(-1)))
		}
	}
	g := wrand.New(3)
	for i := 0; i < 50000; i++ {
		checkFixed3(t, math.Float64frombits(g.Uint64()))
		checkFixed3(t, g.Float64()*100)
		checkFixed3(t, (g.Float64()-0.5)*math.Pow(10, float64(g.IntN(16))))
	}
}

func TestCoordLabel(t *testing.T) {
	if got, want := coordLabel("[", "]", 1.5, -0.0625), fmt.Sprintf("[%.3f, %.3f]", 1.5, -0.0625); got != want {
		t.Fatalf("coordLabel = %q, want %q", got, want)
	}
	if got := coordLabel("", "", 2); got != "2.000" {
		t.Fatalf("coordLabel of one coordinate = %q", got)
	}
}

// FuzzFixed3 compares the label formatter with fmt.Sprintf("%.3f", x)
// on arbitrary bit patterns.
func FuzzFixed3(f *testing.F) {
	for _, x := range []float64{0, 0.0625, -1.0005, 4e12, math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed3(t, math.Float64frombits(bits))
	})
}
