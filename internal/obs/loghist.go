package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// subBits sets the LogHistogram resolution: 2^subBits linear sub-buckets
// per power-of-two octave, so any recorded value is reconstructed with
// relative error at most 2^-subBits (3.125% at subBits=5). Values below
// 2^subBits get a bucket each and are exact.
const subBits = 5

// logHistBuckets covers the full non-negative int64 range: values
// 0..2^subBits-1 map to their own buckets, then each octave e =
// subBits..62 contributes 2^subBits sub-buckets.
const logHistBuckets = (64 - subBits) << subBits

// LogHistogram is an HDR-style log-bucketed histogram of non-negative
// int64 values (I/Os, nanoseconds, rounds), and the package's only
// distribution type. Observe is lock-free and wait-free modulo the max
// CAS; Quantile answers any percentile with bounded relative error,
// which is what makes p999 exact enough to gate on — no mass is ever
// lumped into a final catch-all bucket.
//
// Reads (Quantile, Count, Sum, Max) take a relaxed snapshot: they are
// safe concurrently with Observe but may see a mid-update state.
type LogHistogram struct {
	counts [logHistBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewLogHistogram builds an unregistered LogHistogram. Use
// Registry.NewLogHistogram to also export it as a Prometheus summary.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

// bucketIndex maps v to its bucket. The layout is continuous: index v for
// v < 2^subBits, then ((e-subBits+1)<<subBits) + (v>>(e-subBits)) -
// 2^subBits for floor(log2 v) = e.
func bucketIndex(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v))
	sub := v >> uint(e-subBits)
	return int(int64(e-subBits+1)<<subBits + sub - 1<<subBits)
}

// bucketUpper returns the largest value mapping to bucket idx. Quantile
// reports this upper bound, so estimates only ever round up — an estimate
// q̂ of a true quantile q satisfies q ≤ q̂ ≤ q·(1+2^-subBits).
func bucketUpper(idx int) int64 {
	if idx < 1<<subBits {
		return int64(idx)
	}
	g := idx >> subBits // octave group ≥ 1
	within := int64(idx & (1<<subBits - 1))
	e := g - 1 + subBits
	width := int64(1) << uint(e-subBits)
	lo := (1<<subBits + within) * width
	return lo + width - 1
}

// Observe records one value. Negative values clamp to zero.
func (h *LogHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *LogHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *LogHistogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (exact, not bucketed).
func (h *LogHistogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper estimate of the q-quantile (q in [0,1]) with
// relative error bounded by 2^-subBits: the returned value is ≥ the exact
// order statistic and at most (1+2^-subBits)× it. Quantile(0.5) is the
// median, Quantile(1) the bucketed max. An empty histogram returns 0.
func (h *LogHistogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i := 0; i < logHistBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	// Concurrent observers raced count ahead of the buckets; report the
	// highest populated bound seen.
	return h.max.Load()
}
