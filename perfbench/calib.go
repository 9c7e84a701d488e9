package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// On a machine shared with other tenants the speed drifts by 20% and more
// over minutes, and every workload drifts with it. A fixed task that does
// not touch the library, timed in the same run, tracks that drift
// (correlation -0.88 with lib-dominance-t1's qps over 26 repetitions on a
// 2-vCPU Xeon), so wall-clock metrics are reported at the reference speed:
// scaled by calibRefMs over the task's time in this run. This halved the
// quartile spread of qps across repetitions (17.8% to 8.3%).

// calibRefMs is the calibration task's time on the reference machine.
const calibRefMs = 300.0

// calibrator holds the task's inputs, built once per process.
type calibrator struct {
	next   []uint32  // a single random cycle over 64 MiB
	floats []float64 // unsorted input for the sort
	buf    []float64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 16 << 20
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: the permutation is one cycle through every slot.
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	floats := make([]float64, 200000)
	for i := range floats {
		floats[i] = rng.Float64()
	}
	return &calibrator{next: next, floats: floats, buf: make([]float64, len(floats))}
}

var calibSink uint64

// once runs the task: a dependent-load chase through memory, a sort, and
// building and dropping a map, roughly the mix of pointer chasing,
// comparison work and allocation the workloads do.
func (c *calibrator) once() time.Duration {
	t := time.Now()
	j := uint32(0)
	for i := 0; i < 2_000_000; i++ {
		j = c.next[j]
	}
	copy(c.buf, c.floats)
	slices.Sort(c.buf)
	m := make(map[uint64]uint64)
	for i := uint64(0); i < 200000; i++ {
		m[i*2654435761] = i
	}
	calibSink += uint64(j) + uint64(len(m))
	return time.Since(t)
}

// measure returns the fastest of three runs of the task, in ms.
func (c *calibrator) measure() float64 {
	return float64(min(c.once(), c.once(), c.once())) / float64(time.Millisecond)
}

// speed is the machine's speed in a run relative to the reference: the
// mean of the task's times before and after the run's timed work.
type speed struct{ before, after float64 }

// factor is what a time measured in the run is multiplied by to report it
// at the reference speed (a rate is divided by it).
func (s speed) factor() float64 { return calibRefMs / ((s.before + s.after) / 2) }
