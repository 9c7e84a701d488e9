// Package topk is a library of top-k indexing structures built from the
// general reductions of Rahul and Tao, "Efficient Top-k Indexing via
// General Reductions" (PODS 2016).
//
// Given a set of weighted elements and a family of predicates, a top-k
// query asks for the k heaviest elements satisfying a predicate. The
// paper shows that a structure for *prioritized reporting* (all elements
// satisfying q with weight ≥ τ) — optionally together with one for *max
// reporting* (the single heaviest) — can be converted, black-box, into a
// top-k structure:
//
//   - Reduction WorstCase (Theorem 1): prioritized only; static; at most
//     an O(log_B n) slowdown over the prioritized query cost.
//   - Reduction Expected (Theorem 2): prioritized + max; no asymptotic
//     slowdown in expectation; supports updates.
//   - Reduction BinarySearch: the earlier Rahul–Janardan reduction the
//     paper improves on (binary search over the weight threshold), kept
//     as a baseline.
//   - Reduction FullScan: no index at all; the ground-truth oracle.
//
// The package ships ready-made indexes for eight problems — the paper's
// instantiations plus the survey's §2 extensions: interval stabbing
// (NewIntervalIndex), 1D range reporting (NewRangeIndex), orthogonal
// range reporting (NewOrthoIndex), circular range reporting
// (NewCircularIndex), 3D dominance (NewDominanceIndex), 2D point
// enclosure (NewEnclosureIndex), and 2D halfplane / d-dimensional
// halfspace reporting (NewHalfplaneIndex, NewHalfspaceIndex). The
// registry (RegisteredProblems, ProblemByName) exposes all of them
// through the type-erased Served interface, which is what the serving
// binary (cmd/topk-serve), the snapshot tool (cmd/topk-snap), and the
// conformance suite drive. ProblemSpec.BuildSharded serves any of them
// partitioned across independent engines, with parallel fan-out and an
// answer-identical merge (MergeShardResults, which the cluster
// coordinator applies too).
//
// All index reads run against a simulated external-memory machine and
// report I/O counts through Stats, so the paper's I/O bounds can be
// observed directly; wall-clock performance is measured by the package's
// benchmarks. PAPER_MAP.md maps each reduction, lemma by lemma, to the
// code implementing it: its §3 section covers Theorem 1 (WorstCase) and
// its §4 section covers Theorem 2 (Expected).
//
// # Persistence
//
// Every index serializes with Snapshot and reconstructs with its typed
// Restore constructor (RestoreIntervalIndex and friends), ProblemSpec's
// Restore, or LoadSnapshot; a restored index answers every query
// byte-identically to the original at the cost of one sequential read
// pass, O(size/B) I/Os, instead of a rebuild. See DESIGN.md §12 for the
// format and the version/compatibility policy.
//
// # Concurrency
//
// An index is an immutable structure plus per-query state. After
// construction, any number of goroutines may call the read-only methods
// (TopK, Max, ReportAbove, Count, Stats) concurrently; each QueryBatch
// query additionally runs inside its own external-memory tracker view — a
// private cold cache and private counters — so the per-query Stats in a
// BatchResult are deterministic and independent of the parallelism, and
// are merged atomically into the index-wide Stats when the query ends.
// Insert and Delete require exclusive access: they must not run
// concurrently with each other or with any read.
package topk

import (
	"fmt"
	"io"

	"topk/internal/dynamic"
	"topk/internal/em"
	"topk/internal/obs"
)

// Reduction selects how an index answers top-k queries.
type Reduction int

const (
	// Expected is the paper's Theorem 2 reduction (prioritized + max
	// structures, no expected slowdown). The default.
	Expected Reduction = iota
	// WorstCase is the paper's Theorem 1 reduction (prioritized structure
	// only, O(log_B n) worst-case slowdown, static).
	WorstCase
	// BinarySearch is the prior-work Rahul–Janardan reduction: binary
	// search on the weight threshold, costing an extra log n factor on
	// both terms. Kept as the comparison baseline.
	BinarySearch
	// FullScan answers queries by scanning all elements; the oracle.
	FullScan
)

// String returns the reduction's name.
func (r Reduction) String() string {
	switch r {
	case Expected:
		return "Expected"
	case WorstCase:
		return "WorstCase"
	case BinarySearch:
		return "BinarySearch"
	case FullScan:
		return "FullScan"
	}
	return fmt.Sprintf("Reduction(%d)", int(r))
}

// MaintenancePolicy selects how an overlay-dynamized index maintains
// its substructure ladder between updates (internal/dynamic's policy
// seam; DESIGN.md §15). It has no effect on natively dynamic builds or
// on static indexes.
type MaintenancePolicy int

const (
	// PolicyLogarithmic is the classic Bentley–Saxe logarithmic method:
	// a full tail flush carries through the geometric levels, and
	// tombstone debt is repaid by a global rebuild. Amortized insert
	// cost O(log(n/B) · Build(n)/n) I/Os. The default.
	PolicyLogarithmic MaintenancePolicy = iota
	// PolicyBuffered batches updates into per-tier runs (up to four
	// runs per tier) and repays tombstone debt with weight-balanced
	// partial rebuilds of single runs, so no update ever triggers a
	// global rebuild. Amortized insert cost ≈ (1 + ½·log(n/B)) ·
	// Build(n)/n I/Os — strictly below the logarithmic policy's on the
	// EM cost model (experiment E32) — at the price of a constant-factor
	// wider ladder for queries to merge across.
	PolicyBuffered
)

// String returns the policy's name, matching internal/dynamic's policy
// identifiers (and the id recorded in snapshots).
func (p MaintenancePolicy) String() string {
	switch p {
	case PolicyLogarithmic:
		return "logarithmic"
	case PolicyBuffered:
		return "buffered"
	}
	return fmt.Sprintf("MaintenancePolicy(%d)", int(p))
}

func (p MaintenancePolicy) dynPolicy() dynamic.MaintenancePolicy {
	if p == PolicyBuffered {
		return dynamic.PolicyBuffered
	}
	return dynamic.PolicyLogarithmic
}

// maintenancePolicyByID parses a policy's String()/snapshot identifier.
func maintenancePolicyByID(id string) (MaintenancePolicy, error) {
	switch id {
	case "", PolicyLogarithmic.String():
		return PolicyLogarithmic, nil
	case PolicyBuffered.String():
		return PolicyBuffered, nil
	}
	return 0, fmt.Errorf("topk: unknown maintenance policy %q in snapshot", id)
}

// Options configures an index. Use the With… helpers.
type Options struct {
	reduction Reduction
	blockSize int
	memBlocks int
	seed      uint64
	updates   bool
	tracing   bool
	metrics   bool
	slowW     io.Writer
	slowMin   int64
	slowKeep  int
	queryLogW io.Writer
	policy    ShardPolicy
	maintPol  MaintenancePolicy
	// obsReg and shardLabel are set internally when an engine is built as
	// one shard of a Sharded index: all shards register their metric
	// series in the shared registry, distinguished by a shard="i" label.
	obsReg     *obs.Registry
	shardLabel string
}

// Option mutates Options.
type Option func(*Options)

// WithReduction selects the reduction (default Expected).
func WithReduction(r Reduction) Option { return func(o *Options) { o.reduction = r } }

// WithBlockSize sets the simulated EM block size B in words (default 64,
// the paper's minimum).
func WithBlockSize(b int) Option { return func(o *Options) { o.blockSize = b } }

// WithMemBlocks sets the simulated memory size in block frames (default 8;
// the model requires at least 2).
func WithMemBlocks(m int) Option { return func(o *Options) { o.memBlocks = m } }

// WithSeed seeds the randomized parts of the structures (sampling in both
// reductions). Identical seeds and inputs produce identical structures.
func WithSeed(s uint64) Option { return func(o *Options) { o.seed = s } }

// WithUpdates makes the index dynamic under any reduction: the
// reduction's static structure is wrapped in a dynamization overlay
// (internal/dynamic) of geometrically sized substructures, while
// queries pay only a tombstone-filtered candidate merge across them.
// How the overlay maintains those substructures — when the insert
// buffer flushes, which levels merge, and how tombstone debt is repaid
// — is a pluggable maintenance policy selected by
// WithMaintenancePolicy: the default PolicyLogarithmic is the
// Bentley–Saxe logarithmic method (amortized O(log(n/B) · Build(n)/n)
// insert I/Os with occasional global rebuilds), PolicyBuffered trades
// a wider ladder for strictly cheaper amortized inserts and no global
// rebuilds. The interval and range indexes under the Expected
// reduction are already dynamic through Theorem 2's native update path
// and ignore this option.
func WithUpdates() Option { return func(o *Options) { o.updates = true } }

// WithMaintenancePolicy selects the dynamization overlay's structural
// maintenance policy (default PolicyLogarithmic). It only matters
// together with WithUpdates on a non-natively-dynamic build; see
// MaintenancePolicy for the trade-off and DESIGN.md §15 for the
// design. The policy is structural state: snapshots record it, and a
// restore resumes the overlay under the policy it was running.
func WithMaintenancePolicy(p MaintenancePolicy) Option {
	return func(o *Options) { o.maintPol = p }
}

// WithTracing enables per-query phase traces: every QueryBatch result
// carries the query's span events (Trace on BatchResult), each naming a
// reduction phase with its exact EM I/O deltas. Tracing only reads the
// I/O counters, so enabling it never changes a query's measured cost;
// with tracing off the hooks compile down to a single atomic load.
func WithTracing() Option { return func(o *Options) { o.tracing = true } }

// WithMetrics enables the index's metrics registry: atomic counters and
// histograms (queries, latency, I/Os per query, Theorem 2 rounds per
// query, cache hits, overlay shape, flush/rebuild totals), exported in
// Prometheus text format through the index's WriteMetrics method.
func WithMetrics() Option { return func(o *Options) { o.metrics = true } }

// WithShardPolicy selects how a Sharded index assigns items to shards
// (default ShardByWeight). It has no effect on unsharded indexes.
func WithShardPolicy(p ShardPolicy) Option { return func(o *Options) { o.policy = p } }

// WithSlowQueryLog logs every query that costs at least minIOs simulated
// I/Os: a summary line plus the query's full phase trace, written to w
// (nil keeps entries only in an in-memory ring readable via the serving
// surface). Implies per-query tracing on the batch path.
func WithSlowQueryLog(w io.Writer, minIOs int64) Option {
	return func(o *Options) { o.slowW = w; o.slowMin = minIOs }
}

// WithSlowLogKeep sets how many slow-query entries the in-memory ring
// retains for live inspection (default 64). It only matters together
// with WithSlowQueryLog.
func WithSlowLogKeep(keep int) Option {
	return func(o *Options) { o.slowKeep = keep }
}

// WithQueryLog emits one structured JSON "wide event" per query to w:
// problem, query, k, latency, I/Os split by phase, cache hit rate, and —
// when the query ran under a QueryCtx — its budget, deadline slack, and
// outcome, all in a single newline-delimited row. Under a Sharded index
// each shard emits its own row, distinguished by the shard field. The
// writer is shared by concurrent query workers through a mutex; rows
// never interleave.
func WithQueryLog(w io.Writer) Option {
	return func(o *Options) { o.queryLogW = w }
}

func applyOptions(opts []Option) Options {
	o := Options{reduction: Expected, blockSize: 64, memBlocks: 8, seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

func (o Options) newTracker() *em.Tracker {
	return em.NewTracker(em.Config{B: o.blockSize, MemBlocks: o.memBlocks})
}

// Stats is a point-in-time snapshot of an index's simulated I/O activity
// and space usage.
type Stats struct {
	// Reads and Writes are block I/Os since construction or the last
	// ResetStats; Hits are cache hits (free in the EM model).
	Reads, Writes, Hits int64
	// Blocks is the current space usage in disk blocks.
	Blocks int64
	// Reduction is the reduction answering this index's queries.
	Reduction Reduction
}

// IOs returns Reads + Writes, the EM model's cost metric.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

func statsOf(t *em.Tracker, r Reduction) Stats {
	s := t.Stats()
	return Stats{Reads: s.Reads, Writes: s.Writes, Hits: s.Hits, Blocks: s.Blocks, Reduction: r}
}
