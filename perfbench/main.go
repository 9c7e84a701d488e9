// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the library only through the problem registry
// (ProblemSpec.Build, BuildSharded, Restore, RestoreShard and Served) and
// the topk-serve and topk-snap binaries, so refactors below those
// surfaces leave it untouched. README.md in this directory describes the
// workloads, the metrics and what each layer metric should move.
//
// Usage (from the repository root; run.sh builds everything first):
//
//	bash perfbench/run.sh --workload serve-interval --seed 1 --seconds 10 --trace 0
//
// Every run of a workload replays one seeded sequence of operations of a
// fixed length, so count metrics repeat exactly for a seed. The last line
// of standard output is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). A
// wrong answer exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bins     string // directory holding topk-serve and topk-snap
	out      string // directory for temporary files and trace output
	size     sizes
}

// sizes fixes the operation counts of a workload. Full-size values come
// from fullSizes; the self-test shrinks them.
type sizes struct {
	n       int // indexed items
	ops     int // timed operations: requests, queries or churn rounds
	warm    int // untimed warm-up operations before the timed loop
	setups  int // set-up repetitions; setup_s is their median
	sample  int // queries in the correctness and ladder samples
	batch   int // churn-ortho: items per InsertBatch and DeleteBatch
	queries int // churn-ortho: queries per round
}

// indexSeed fixes the indexed items and the reductions' sampling seed.
// --seed varies only the operation sequence (queries, and churn-ortho's
// fresh items and expiry order): across Theorem 2 build seeds the mean
// I/O cost of the same queries varies by up to 40% (interval, n=262144,
// two shards, seeds 1-5: 99.5 to 164.9 I/Os per query), which no bound
// could absorb.
const indexSeed = 42

// Nominal operation rates on the reference machine (2-vCPU Xeon). A
// run's operation count is --seconds times the rate, a pure function of
// the arguments: a faster commit does the same work in less time and
// never reaches a different index state. serve-interval and
// lib-dominance-t1 run every operation twice (see bestOf), at about 550
// per second.
const (
	serveRate = 275 // distinct requests per second
	libRate   = 275 // distinct queries per second
	// churn-ortho rounds per second of --seconds. A round takes about
	// 100 ms, so the churn loop runs about 2.5 times --seconds: the count
	// must reach the overlay's first global rebuild, after round 254.
	churnRate = 26
)

func fullSizes(workload string, seconds int) (sizes, error) {
	switch workload {
	case "serve-interval":
		return sizes{n: 262144, ops: seconds * serveRate, warm: 256, setups: 3, sample: 64}, nil
	case "lib-dominance-t1":
		return sizes{n: 65536, ops: seconds * libRate, warm: 32, setups: 3, sample: 48}, nil
	case "churn-ortho":
		return sizes{n: 65536, ops: seconds * churnRate, setups: 5, sample: 48, batch: 512, queries: 16}, nil
	}
	return sizes{}, fmt.Errorf("unknown workload %q (want serve-interval, lib-dominance-t1 or churn-ortho)", workload)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: serve-interval | lib-dominance-t1 | churn-ortho")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "run length; the operation count is this times the workload's nominal rate")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bins     = flag.String("bin-dir", "", "directory holding topk-serve and topk-snap (required for serve-interval)")
		out      = flag.String("out", ".bench_build", "directory for temporary files and trace output")
	)
	flag.Parse()
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	sz, err := fullSizes(*workload, *seconds)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bins: *bins, out: *out, size: sz,
	}
	// Being interrupted or timed out must not leave a topk-serve behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		stopAllServers()
		fatalf("interrupted by %v", s)
	}()

	res, err := run(cfg)
	stopAllServers()
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res.print(os.Stdout, cfg)
	if !res.correct {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	work, err := os.MkdirTemp(cfg.out, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, fmt.Errorf("creating the run directory: %w", err)
	}
	defer os.RemoveAll(work)
	// The calibration task's 64 MiB is dropped before the workload runs,
	// so it stays out of the workload's heap.
	sp := speed{before: newCalibrator().measure()}
	var res *result
	switch cfg.workload {
	case "serve-interval":
		res, err = runServe(cfg, work)
	case "lib-dominance-t1":
		res, err = runLib(cfg)
	case "churn-ortho":
		res, err = runChurn(cfg)
	}
	if err != nil {
		return nil, err
	}
	sp.after = newCalibrator().measure()
	res.atReferenceSpeed(sp)
	if cfg.trace {
		path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := res.spans.write(path); err != nil {
			return nil, err
		}
		res.note("spans: %d written to %s", len(res.spans.spans), path)
	}
	return res, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed with --trace 0, by every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ios_per_query", "ios"},
	{"alloc_kb_per_query", "KiB"},
	{"live_heap_mb", "MiB"},
	{"updates_per_s", "items/s"},
	{"ios_per_update", "ios"},
}

// layerMetrics are printed with --trace 1, by every workload. A layer a
// workload bypasses reads 0 there (README.md lists which).
var layerMetrics = []metricDef{
	{"http.self_us", "us"},
	{"http.resp_bytes", "bytes"},
	{"shard.self_us", "us"},
	{"shard.skew", "ratio"},
	{"obs.self_us", "us"},
	{"obs.alloc_kb", "KiB"},
	{"em.view_self_us", "us"},
	{"em.touches_per_query", "blocks"},
	{"em.view_ns_per_touch", "ns"},
	{"em.hit_rate", "ratio"},
	{"core.self_us", "us"},
	{"core.slowdown", "ratio"},
	{"core.t2_rounds_per_query", "rounds"},
	{"core.t2_fail_share", "ratio"},
	{"core.t1_probe_abort_share", "ratio"},
	{"core.streamed_per_returned", "ratio"},
	{"bb.pri_us", "us"},
	{"bb.pri_items", "items"},
	{"dyn.insert_batch_p50_us", "us"},
	{"dyn.insert_batch_p99_us", "us"},
	{"dyn.delete_batch_p50_us", "us"},
	{"dyn.delete_batch_p99_us", "us"},
	{"dyn.flushes", "count"},
	{"dyn.rebuilds", "count"},
	{"dyn.levels", "count"},
	{"dyn.overfetch", "ratio"},
	{"snap.restore_s", "s"},
	{"snap.mb", "MiB"},
	{"gc.cycles_per_kq", "cycles"},
	{"gc.cpu_share", "ratio"},
	{"mallocs_per_query", "objects"},
	{"peak_rss_mb", "MiB"},
	{"trace.qps_delta", "1/s"},
	{"trace.p50_ms_delta", "ms"},
	{"trace.p99_ms_delta", "ms"},
	{"machine.calib_ms", "ms"},
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	digest    uint64   // hash of every answer, in operation order
	notes     []string // human-readable lines printed before the JSON
	spans     spanLog
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) setE2E(name string, v float64) {
	mustDefine(e2eMetrics, name)
	r.e2e[name] = v
}

func (r *result) setLayer(name string, v float64) {
	mustDefine(layerMetrics, name)
	r.layer[name] = v
}

func mustDefine(defs []metricDef, name string) {
	for _, d := range defs {
		if d.name == name {
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// wallClock lists the end-to-end metrics measured in wall-clock time,
// with whether they are rates (higher is faster).
var wallClock = []struct {
	name string
	rate bool
}{{"setup_s", false}, {"qps", true}, {"p50_ms", false}, {"p99_ms", false}, {"updates_per_s", true}}

// atReferenceSpeed rescales the wall-clock end-to-end metrics to the
// reference machine speed (see calib.go) and notes the measured values.
func (r *result) atReferenceSpeed(sp speed) {
	f := sp.factor()
	r.setLayer("machine.calib_ms", (sp.before+sp.after)/2)
	r.note("calibration task: %.1f ms before, %.1f ms after; wall-clock metrics scaled by %.4f", sp.before, sp.after, f)
	for _, m := range wallClock {
		v := r.e2e[m.name]
		r.note("  %s as measured: %.6g", m.name, v)
		if m.rate {
			r.e2e[m.name] = v / f
		} else {
			r.e2e[m.name] = v * f
		}
	}
}

// failAll records one failed operation per message.
func (r *result) failAll(msgs []string) {
	for i, m := range msgs {
		if i == 5 {
			r.note("... %d more", len(msgs)-i)
			break
		}
		r.note("%s", m)
	}
	r.fail(len(msgs), "operations")
}

// fail records failed operations; any failure marks the run incorrect.
func (r *result) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	r.correct = false
	r.note("FAILED %d: "+format, append([]any{n}, args...)...)
}

func (r *result) print(w *os.File, cfg config) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	defs, vals := e2eMetrics, r.e2e
	if cfg.trace {
		defs, vals = layerMetrics, r.layer
	}
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			fatalf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
		}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Fprintf(w, "answer digest %016x, attempted %d, failed %d\n", r.digest, r.attempted, r.failed)
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(w, string(line))
}
