package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"topk"
)

// durations is a set of raw per-operation samples. Percentiles come from
// the sorted samples themselves (nearest rank), never from histogram
// buckets, so a p99 does not jump between bucket edges.
type durations []time.Duration

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100) in ms.
func (d durations) pct(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return ms(s[rank-1])
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencyMetrics adds qps, p50_ms and p99_ms and notes the sample count:
// p99 needs at least ten samples beyond it.
func latencyMetrics(r *result, lat durations, qps float64) {
	r.setE2E("qps", qps)
	r.setE2E("p50_ms", lat.pct(50))
	r.setE2E("p99_ms", lat.pct(99))
	r.note("latency: %d samples, %d beyond p99", len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))))
}

// bestOf combines two timed passes over the same operations, the second
// run in reverse order and b already put back in operation order: an
// operation's latency is the faster of its two runs, and the throughput
// is the faster pass's. Interference from other tenants of the machine
// that lasts less than a pass drops out.
func bestOf(a, b durations, wallA, wallB time.Duration) (durations, float64) {
	lat := make(durations, len(a))
	for i := range a {
		lat[i] = min(a[i], b[i])
	}
	return lat, float64(len(a)) / min(wallA, wallB).Seconds()
}

func reversed[T any](s []T) []T {
	out := make([]T, len(s))
	for i, x := range s {
		out[len(s)-1-i] = x
	}
	return out
}

// digest is an order-sensitive hash of answers.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) word(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	d.h.Write(b[:])
}

// items folds in one answer: its weights, then its length.
func (d digest) items(its []topk.ServedItem) {
	for _, it := range its {
		d.word(math.Float64bits(it.Weight))
	}
	d.word(uint64(len(its)))
}

func (d digest) sum() uint64 { return d.h.Sum64() }

func answerHash(its []topk.ServedItem) uint64 {
	d := newDigest()
	d.items(its)
	return d.sum()
}

// hashAll folds per-operation answer hashes, in operation order.
func hashAll(hs []uint64) uint64 {
	d := newDigest()
	for _, h := range hs {
		d.word(h)
	}
	return d.sum()
}

// sameWeights reports whether two answers list the same weights in the
// same order. Weights are item identities.
func sameWeights(a, b []topk.ServedItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Weight != b[i].Weight {
			return false
		}
	}
	return true
}

// topOf is the first k items of an oracle answer.
func topOf(all []topk.ServedItem, k int) []topk.ServedItem {
	if len(all) > k {
		return all[:k]
	}
	return all
}

// procStats are this process's cumulative Go runtime counters.
type procStats struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64 // seconds
}

// readProc reads the counters. ReadMemStats stops the world, so its
// allocation counts are exact even for small deltas.
func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procStats{
		allocBytes: m.TotalAlloc, mallocs: m.Mallocs, gcCycles: m.NumGC,
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
	}
}

// since returns the counters accumulated after an earlier reading.
func (p procStats) since(q procStats) procStats {
	return procStats{p.allocBytes - q.allocBytes, p.mallocs - q.mallocs, p.gcCycles - q.gcCycles, p.gcCPU - q.gcCPU, p.totalCPU - q.totalCPU}
}

func (p procStats) plus(q procStats) procStats {
	return procStats{p.allocBytes + q.allocBytes, p.mallocs + q.mallocs, p.gcCycles + q.gcCycles, p.gcCPU + q.gcCPU, p.totalCPU + q.totalCPU}
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runtimeLayer adds the Go runtime rung for counters d accumulated over
// ops operations.
func runtimeLayer(r *result, d procStats, ops int) {
	r.setLayer("gc.cycles_per_kq", float64(d.gcCycles)/(float64(ops)/1000))
	share := 0.0
	if d.totalCPU > 0 {
		share = d.gcCPU / d.totalCPU
	}
	r.setLayer("gc.cpu_share", share)
	r.setLayer("mallocs_per_query", float64(d.mallocs)/float64(ops))
	r.setLayer("peak_rss_mb", peakRSSMiB(os.Getpid()))
}

// peakRSSMiB reads VmHWM of a process from /proc (0 where unavailable).
func peakRSSMiB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// span is one traced interval. Spans of one operation share Req; Parent
// indexes the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// spanLog keeps spans in memory; write dumps them once at exit.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(name string, start, end time.Time, parent, req int) int {
	if l.epoch.IsZero() {
		l.epoch = start
	}
	l.spans = append(l.spans, span{
		Name: name, Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)), Parent: parent, Req: req,
	})
	return len(l.spans) - 1
}

// selfTimes returns, for every span named name, its duration minus the
// part covered by its children.
func (l *spanLog) selfTimes(name string) []float64 {
	child := make(map[int]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[i]))
		}
	}
	return out
}

// durationsOf returns the durations of every span named name.
func (l *spanLog) durationsOf(name string) durations {
	var out durations
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
