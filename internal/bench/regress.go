package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"testing"

	"topk"
	"topk/internal/wrand"
)

// This file emits the benchmark-regression snapshot the CI gate diffs
// across PRs (cmd/topk-bench -io-json, compared by cmd/benchdiff
// against the newest checked-in BENCH_*.json). Two row families:
//
//   - io: total simulated I/Os for a pinned query workload, for every
//     problem × reduction and for sharded builds at several widths.
//     Per-query EM stats come from cold-cache tracker views, so these
//     are exact deterministic functions of (workload, seed) — any drift
//     is a real cost change, and the gate fails on unexplained
//     increases.
//   - io, "update/..." keys: the pinned update workload — the same
//     fresh batch paid for through single Inserts and through one
//     InsertBatch — on overlay builds under each maintenance policy, so
//     benchdiff gates the amortized update cost of both policies and of
//     the bulk-ingest path.
//   - io, "churn/{policy}/{problem}/{script}" keys: overlay queries that
//     meet tombstones. A pinned script of InsertBatch/DeleteBatch rounds
//     (seeded random expiry, or pop-max: delete the heaviest live items)
//     churns an overlay build under each maintenance policy, and the
//     pinned query set runs at three points of the rebuild cycle, so
//     benchdiff gates what deletions cost later queries.
//   - io, "cluster/r{R}/..." keys: the same pinned workload answered
//     through the internal/cluster coordinator (hedged fan-out over
//     snapshot-restored replica nodes, Lemma 2 merge) at replication 1
//     and 2, gating the cost of the cluster merge path.
//   - wall: ns/op for a few hot paths via testing.Benchmark. Wall time
//     is machine-dependent, so the gate only reports these deltas.
//
// The workload shape is pinned (not scaled by -quick): comparing
// snapshots only makes sense when both sides measured the same thing.

const (
	// RegressSchema versions the JSON layout; bump on incompatible change.
	RegressSchema = "topk-bench-io/v1"

	regressN  = 4096
	regressNQ = 48
	regressK  = 16
)

// regressShardWidths are the sharded-build widths measured alongside
// the single-engine rows.
var regressShardWidths = []int{2, 8}

// IORow is one deterministic I/O measurement: the workload's total
// simulated cost on one problem/reduction/shard-width cell.
type IORow struct {
	Key   string `json:"key"`   // "problem/Reduction" or "problem/Reduction/shards=S"
	IOs   int64  `json:"ios"`   // reads+writes over the whole query set
	Hits  int64  `json:"hits"`  // cache hits (free in the EM model)
	Items int64  `json:"items"` // total items returned, a result-shape checksum
}

// WallRow is one wall-clock measurement; ns/op varies by machine, so
// the gate treats these as report-only.
type WallRow struct {
	Key  string `json:"key"`
	NsOp int64  `json:"ns_op"`
}

// RegressReport is the machine-readable snapshot checked in as
// BENCH_*.json and compared by cmd/benchdiff.
type RegressReport struct {
	Schema string    `json:"schema"`
	Seed   uint64    `json:"seed"`
	N      int       `json:"n"`
	NQ     int       `json:"nq"`
	K      int       `json:"k"`
	IO     []IORow   `json:"io"`
	Wall   []WallRow `json:"wall"`
}

// Regress measures the pinned workload and returns the report.
func Regress(cfg Config) (*RegressReport, error) {
	rep := &RegressReport{
		Schema: RegressSchema, Seed: cfg.Seed,
		N: regressN, NQ: regressNQ, K: regressK,
	}

	measure := func(key string, ix topk.Served) {
		qs := ix.GenQueries(regressNQ, cfg.Seed+270)
		res := ix.QueryBatch(qs, regressK, 0)
		row := IORow{Key: key}
		for _, r := range res {
			row.IOs += r.Stats.IOs()
			row.Hits += r.Stats.Hits
			row.Items += int64(len(r.Items))
		}
		rep.IO = append(rep.IO, row)
	}

	for _, spec := range topk.RegisteredProblems() {
		for _, r := range topk.AllReductions() {
			ix, err := spec.Build(regressN, cfg.Seed+27, topk.WithReduction(r), topk.WithSeed(cfg.Seed))
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", spec.Name, r, err)
			}
			measure(fmt.Sprintf("%s/%v", spec.Name, r), ix)
		}
		for _, shards := range regressShardWidths {
			ix, err := spec.BuildSharded(regressN, shards, cfg.Seed+27, topk.WithSeed(cfg.Seed))
			if err != nil {
				return nil, fmt.Errorf("%s/shards=%d: %w", spec.Name, shards, err)
			}
			measure(fmt.Sprintf("%s/%v/shards=%d", spec.Name, topk.Expected, shards), ix)
		}
	}

	if err := regressUpdates(cfg, rep); err != nil {
		return nil, err
	}

	if err := regressChurn(cfg, rep); err != nil {
		return nil, err
	}

	if err := regressCluster(cfg, rep); err != nil {
		return nil, err
	}

	for _, w := range wallBenchmarks(cfg) {
		r := testing.Benchmark(w.fn)
		rep.Wall = append(rep.Wall, WallRow{Key: w.key, NsOp: r.NsPerOp()})
	}
	return rep, nil
}

// regressUpdateOps is the pinned update count behind the update rows.
const regressUpdateOps = 1024

// regressUpdates appends the update-path row family: the same pinned
// batch of fresh items paid for through single Inserts and through one
// InsertBatch, on overlay builds under each maintenance policy. The
// gate's standing expectation (asserted by the tier-1 suite as well) is
// that every ".../ingest" row stays below its ".../insert" sibling:
// bulk ingest costs one sorted merge, not per-item tail cascades.
func regressUpdates(cfg Config, rep *RegressReport) error {
	for _, name := range []string{"interval", "range"} {
		spec, ok := topk.ProblemByName(name)
		if !ok {
			return fmt.Errorf("update/%s: problem not registered", name)
		}
		for _, pol := range []topk.MaintenancePolicy{topk.PolicyLogarithmic, topk.PolicyBuffered} {
			// The small block size forces the update workload through many
			// tail flushes and ladder cascades; with the default block size
			// the whole batch would fit in the overlay tail and both paths
			// would measure nothing but dup checks.
			build := func() (topk.Served, error) {
				return spec.Build(regressN, cfg.Seed+27, topk.WithSeed(cfg.Seed),
					topk.WithUpdates(), topk.WithReduction(topk.WorstCase),
					topk.WithBlockSize(16), topk.WithMaintenancePolicy(pol))
			}

			single, err := build()
			if err != nil {
				return fmt.Errorf("update/%v/%s: %w", pol, name, err)
			}
			single.ResetStats()
			for i := 0; i < regressUpdateOps; i++ {
				if _, err := single.InsertFresh(cfg.Seed + 321 + uint64(i)); err != nil {
					return fmt.Errorf("update/%v/%s: insert %d: %w", pol, name, i, err)
				}
			}
			st := single.Stats()
			rep.IO = append(rep.IO, IORow{
				Key: fmt.Sprintf("update/%v/%s/insert", pol, name),
				IOs: st.IOs(), Hits: st.Hits, Items: regressUpdateOps,
			})

			batch, err := build()
			if err != nil {
				return fmt.Errorf("update/%v/%s: %w", pol, name, err)
			}
			items := make([]any, regressUpdateOps)
			for i := range items {
				w := 2e9 + float64(i)
				var raw string
				if name == "interval" {
					lo := float64(i%41) * 2.2
					raw = fmt.Sprintf(`{"lo": %g, "hi": %g, "weight": %g}`, lo, lo+9, w)
				} else {
					raw = fmt.Sprintf(`{"pos": %g, "weight": %g}`, float64(i%53)*1.8, w)
				}
				it, err := batch.DecodeItem(json.RawMessage(raw))
				if err != nil {
					return fmt.Errorf("update/%v/%s: decode %s: %w", pol, name, raw, err)
				}
				items[i] = it
			}
			batch.ResetStats()
			if err := batch.InsertBatch(items); err != nil {
				return fmt.Errorf("update/%v/%s: ingest: %w", pol, name, err)
			}
			st = batch.Stats()
			rep.IO = append(rep.IO, IORow{
				Key: fmt.Sprintf("update/%v/%s/ingest", pol, name),
				IOs: st.IOs(), Hits: st.Hits, Items: regressUpdateOps,
			})
		}
	}
	return nil
}

// The churn rows' script: regressChurnRounds rounds, each inserting and
// then deleting regressChurnBatch items, so the live count stays
// regressN. Under PolicyLogarithmic the tombstones reach DeadFrac = 0.5
// of the baked-in items, and trigger the global rebuild, in round 16;
// regressChurnAt are the rounds after which a third of the query set
// runs: early, midway and last thing before that rebuild.
const (
	regressChurnRounds = 15
	regressChurnBatch  = 256
)

var regressChurnAt = []int{5, 10, 15}

// regressChurnItem renders a fresh item of the churned problems in its
// wire shape.
var regressChurnItem = map[string]func(rng *wrand.RNG, w float64) string{
	"ortho": func(rng *wrand.RNG, w float64) string {
		return fmt.Sprintf(`{"coords": [%v, %v], "weight": %v}`, rng.Float64()*100, rng.Float64()*100, w)
	},
	"dominance": func(rng *wrand.RNG, w float64) string {
		return fmt.Sprintf(`{"x": %v, "y": %v, "z": %v, "weight": %v}`, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, w)
	},
}

// regressChurnCover is a query of each churned problem that every item
// satisfies, to list the base items.
var regressChurnCover = map[string]string{
	"ortho":     `{"lo": [-1, -1], "hi": [101, 101]}`,
	"dominance": `[101, 101, 101]`,
}

// regressChurn appends the churn row family (see the file comment).
func regressChurn(cfg Config, rep *RegressReport) error {
	for _, pol := range []topk.MaintenancePolicy{topk.PolicyLogarithmic, topk.PolicyBuffered} {
		for _, name := range []string{"ortho", "dominance"} {
			for _, script := range []string{"expiry", "popmax"} {
				key := fmt.Sprintf("churn/%v/%s/%s", pol, name, script)
				row, err := churnRow(cfg, pol, name, script)
				if err != nil {
					return fmt.Errorf("%s: %w", key, err)
				}
				row.Key = key
				rep.IO = append(rep.IO, row)
			}
		}
	}
	return nil
}

// churnRow replays one churn script and sums the pinned query set's
// per-query costs.
func churnRow(cfg Config, pol topk.MaintenancePolicy, name, script string) (IORow, error) {
	var row IORow
	spec, ok := topk.ProblemByName(name)
	if !ok {
		return row, fmt.Errorf("problem not registered")
	}
	ix, err := spec.Build(regressN, cfg.Seed+27, topk.WithSeed(cfg.Seed),
		topk.WithUpdates(), topk.WithMaintenancePolicy(pol))
	if err != nil {
		return row, err
	}
	cover, err := ix.DecodeQuery(json.RawMessage(regressChurnCover[name]))
	if err != nil {
		return row, err
	}
	// live holds the live weights; expiry deletes from its front after
	// one seeded shuffle of the base items, pop-max from its heaviest end.
	var live []float64
	used := make(map[float64]bool)
	for _, it := range ix.Oracle(cover) {
		live = append(live, it.Weight)
		used[it.Weight] = true
	}
	if len(live) != regressN {
		return row, fmt.Errorf("covering query lists %d items, want %d", len(live), regressN)
	}
	rng := wrand.New(cfg.Seed + 2025)
	sort.Float64s(live)
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	qs := ix.GenQueries(regressNQ, cfg.Seed+270)
	per := regressNQ / len(regressChurnAt)
	next := 0
	for round := 1; round <= regressChurnRounds; round++ {
		batch := make([]any, regressChurnBatch)
		for i := range batch {
			w := rng.Float64() * 1e6
			for used[w] {
				w = rng.Float64() * 1e6
			}
			used[w] = true
			it, err := ix.DecodeItem(json.RawMessage(regressChurnItem[name](rng, w)))
			if err != nil {
				return row, err
			}
			batch[i] = it
			live = append(live, w)
		}
		if err := ix.InsertBatch(batch); err != nil {
			return row, err
		}
		var dels []float64
		if script == "popmax" {
			sort.Float64s(live)
			cut := len(live) - regressChurnBatch
			dels, live = append(dels, live[cut:]...), live[:cut]
		} else {
			dels, live = live[:regressChurnBatch], live[regressChurnBatch:]
		}
		if n, err := ix.DeleteBatch(dels); err != nil || n != len(dels) {
			return row, fmt.Errorf("round %d: DeleteBatch removed %d of %d: %v", round, n, len(dels), err)
		}
		if next < len(regressChurnAt) && round == regressChurnAt[next] {
			for _, r := range ix.QueryBatch(qs[next*per:(next+1)*per], regressK, 0) {
				row.IOs += r.Stats.IOs()
				row.Hits += r.Stats.Hits
				row.Items += int64(len(r.Items))
			}
			next++
		}
	}
	return row, nil
}

// WriteRegressJSON runs Regress and writes the report as indented JSON,
// the format of the checked-in BENCH_*.json baselines.
func WriteRegressJSON(w io.Writer, cfg Config) error {
	rep, err := Regress(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

type wallBench struct {
	key string
	fn  func(b *testing.B)
}

// wallBenchmarks are the hot paths tracked for wall-clock drift: the
// two reduction query paths, the concurrent batch path, and the sharded
// fan-out/merge path.
func wallBenchmarks(cfg Config) []wallBench {
	spec, _ := topk.ProblemByName("interval")
	dspec, _ := topk.ProblemByName("dominance")
	topkLoop := func(ix topk.Served) func(b *testing.B) {
		return func(b *testing.B) {
			qs := ix.GenQueries(64, cfg.Seed+271)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.TopK(qs[i%len(qs)], regressK)
			}
		}
	}
	mk := func(build func() (topk.Served, error)) topk.Served {
		ix, err := build()
		if err != nil {
			panic(err)
		}
		return ix
	}
	return []wallBench{
		{"wall/interval/Expected/topk", topkLoop(mk(func() (topk.Served, error) {
			return spec.Build(regressN, cfg.Seed+27, topk.WithSeed(cfg.Seed))
		}))},
		{"wall/interval/WorstCase/topk", topkLoop(mk(func() (topk.Served, error) {
			return spec.Build(regressN, cfg.Seed+27, topk.WithReduction(topk.WorstCase), topk.WithSeed(cfg.Seed))
		}))},
		{"wall/dominance/Expected/topk", topkLoop(mk(func() (topk.Served, error) {
			return dspec.Build(regressN, cfg.Seed+27, topk.WithSeed(cfg.Seed))
		}))},
		{"wall/interval/Expected/shards=4/topk", topkLoop(mk(func() (topk.Served, error) {
			return spec.BuildSharded(regressN, 4, cfg.Seed+27, topk.WithSeed(cfg.Seed))
		}))},
		{"wall/interval/Expected/batch64", func(b *testing.B) {
			ix := mk(func() (topk.Served, error) {
				return spec.Build(regressN, cfg.Seed+27, topk.WithSeed(cfg.Seed))
			})
			qs := ix.GenQueries(64, cfg.Seed+271)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.QueryBatch(qs, regressK, 0)
			}
		}},
	}
}
