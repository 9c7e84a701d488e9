package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// tinySizes shrink every workload so a run takes about a second.
var tinySizes = map[string]sizes{
	"serve-interval":   {n: 4096, ops: 300, warm: 16, setups: 1, sample: 16},
	"lib-dominance-t1": {n: 2048, ops: 200, warm: 4, setups: 1, sample: 16},
	"churn-ortho":      {n: 2048, ops: 12, setups: 1, sample: 16, batch: 64, queries: 4},
}

// buildBinaries builds topk-serve and topk-snap from this checkout.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bins := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bins+string(filepath.Separator), "./cmd/topk-serve", "./cmd/topk-snap")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building the servers: %v\n%s", err, out)
	}
	return bins
}

func tinyRun(t *testing.T, workload string, seed uint64, trace bool, bins string) *result {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 1, trace: trace, bins: bins, out: t.TempDir(), size: tinySizes[workload]}
	res, err := run(cfg)
	stopAllServers()
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.correct || res.failed != 0 {
		t.Fatalf("%s seed %d: incorrect run, %d of %d failed: %v", workload, seed, res.failed, res.attempted, res.notes)
	}
	return res
}

// Two runs with the same seed replay the same operations: exact counts
// and answer digests repeat. Another seed reaches the workload and
// changes the answers.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the servers and runs every workload")
	}
	bins := buildBinaries(t)
	for _, w := range []string{"serve-interval", "lib-dominance-t1", "churn-ortho"} {
		t.Run(w, func(t *testing.T) {
			a := tinyRun(t, w, 1, false, bins)
			b := tinyRun(t, w, 1, false, bins)
			c := tinyRun(t, w, 2, false, bins)
			for _, m := range []string{"ios_per_query", "ios_per_update"} {
				if a.e2e[m] != b.e2e[m] {
					t.Errorf("%s differs between identical runs: %v vs %v", m, a.e2e[m], b.e2e[m])
				}
			}
			if a.digest != b.digest {
				t.Errorf("answer digest differs between identical runs: %016x vs %016x", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 1 and 2 gave the same answer digest %016x", a.digest)
			}
			for _, d := range e2eMetrics {
				if a.e2e[d.name] == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
		})
	}
}

// A traced run reports each layer on the workloads that exercise it.
// Theorem 1's probe and harvest phases need a larger index than the tiny
// one, so lib-dominance-t1's core counts are not checked here.
func TestTracedRunReportsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the servers and runs every workload")
	}
	bins := buildBinaries(t)
	want := map[string][]string{
		"serve-interval": {"http.self_us", "http.resp_bytes", "shard.skew", "obs.alloc_kb", "em.touches_per_query",
			"core.slowdown", "core.t2_rounds_per_query", "bb.pri_items", "snap.restore_s", "snap.mb", "mallocs_per_query", "peak_rss_mb"},
		"lib-dominance-t1": {"em.touches_per_query", "core.slowdown", "bb.pri_items",
			"mallocs_per_query", "peak_rss_mb"},
		"churn-ortho": {"em.touches_per_query", "core.slowdown", "core.t2_rounds_per_query", "bb.pri_items",
			"dyn.insert_batch_p50_us", "dyn.delete_batch_p99_us", "dyn.flushes", "dyn.levels", "dyn.overfetch", "mallocs_per_query"},
	}
	for w, names := range want {
		t.Run(w, func(t *testing.T) {
			res := tinyRun(t, w, 1, true, bins)
			for _, name := range names {
				if res.layer[name] == 0 {
					t.Errorf("layer metric %s is 0", name)
				}
			}
			if len(res.spans.spans) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}
