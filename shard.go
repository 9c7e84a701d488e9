package topk

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"topk/internal/obs"
	"topk/internal/shard"
)

// This file is the sharding layer: a sharded index partitions one
// workload across S independent engines (each with its own EM tracker
// and reduction-built structure), fans every query out to all shards in
// parallel, and k-way-merges the per-shard answers by weight. The merge
// is the paper's Lemma 2 core-set combine (internal/shard documents the
// one-line argument), so a sharded index answers exactly what a single
// engine over the union would — the conformance suite asserts this for
// every problem × reduction at several shard counts. An item's shard is
// a pure function of its weight, shard.Hash(w, S) — any partition makes
// the merge exact, so placement needs no table — and every update goes
// to that home shard, whose own duplicate check is therefore global.
// Dynamization (WithUpdates, or the native Theorem 2 path) composes per
// shard, and each shard's build, insert, and query I/Os stay attributed
// to that shard's tracker.
//
// The registry is the only way in: ProblemSpec.BuildSharded, Restore and
// LoadSnapshot put a sharded index behind the type-erased Served
// surface. MergeShardResults, the per-query merge and its degradation
// ladder, is exported because the cluster coordinator applies the very
// same function to per-shard answers that arrive over the wire.

// sharded is a horizontally partitioned top-k index: S independent
// engines over disjoint subsets of the items, queried in parallel and
// combined by the Lemma 2 merge. It exposes the same surface as a
// single engine (the registry's servedEngine); per-query BatchResult
// stats are the sum of the query's per-shard cold-cache costs and remain
// deterministic and parallelism-invariant. The concurrency contract is
// unchanged: any number of goroutines may query, but Insert and Delete
// require exclusive access.
//
// The type parameters mirror the engine's: Q is the query, V the core
// value, It the exported item.
type sharded[Q, V, It any] struct {
	p      problem[Q, V, It]
	opts   Options
	shards []*engine[Q, V, It]
	// ob is the index's one observability pipeline, shared by every
	// shard engine (nil when observability is off).
	ob *indexObs
}

// newSharded places every item on its home shard (shard.Hash of its
// weight) and builds one engine per shard. All shards share one
// observability pipeline — one metrics registry (series are
// distinguished by a shard label), one slow-query log, one wide-event
// log — but nothing else: trackers, structures, and caches are fully
// independent.
func newSharded[Q, V, It any](p problem[Q, V, It], items []It, shards int, opts []Option) (*sharded[Q, V, It], error) {
	if shards < 1 {
		return nil, fmt.Errorf("topk: need at least 1 shard, got %d", shards)
	}
	s := &sharded[Q, V, It]{p: p, opts: applyOptions(opts), shards: make([]*engine[Q, V, It], shards)}
	for sh, sub := range shard.Assign(items, shards, p.weight) {
		eng, err := buildEngine(p, sub, s.opts)
		if err != nil {
			// Name the rejected item by its index in items, as an
			// unsharded build does, not by its index in this bucket.
			var bad *itemError
			if errors.As(err, &bad) {
				j := bad.i
				for i, it := range items {
					if shard.Hash(p.weight(it), shards) != sh {
						continue
					}
					if j == 0 {
						bad.i = i
						break
					}
					j--
				}
			}
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
		s.shards[sh] = eng
	}
	s.observe()
	return s, nil
}

// observe builds the index's one observability pipeline from its
// options, with the topk_shards gauge on its registry, and attaches
// every shard engine to it under its shard label. Built and restored
// indexes both come through here.
func (s *sharded[Q, V, It]) observe() {
	s.ob = newIndexObs(s.p.name, s.opts)
	if s.ob != nil && s.ob.reg != nil {
		s.ob.reg.NewGauge("topk_shards", "Shards in the partitioned index.",
			obs.Label{Key: "index", Value: s.p.name}).Set(int64(len(s.shards)))
	}
	for sh, e := range s.shards {
		e.observe(s.ob, strconv.Itoa(sh))
	}
}

// Len returns the number of live items across all shards.
func (s *sharded[Q, V, It]) Len() int {
	n := 0
	for _, e := range s.shards {
		n += e.Len()
	}
	return n
}

// ShardLens returns the live item count of each shard — the partition's
// balance, and the observable the routing tests pin down.
func (s *sharded[Q, V, It]) ShardLens() []int {
	out := make([]int, len(s.shards))
	for i, e := range s.shards {
		out[i] = e.Len()
	}
	return out
}

// TopK returns the k heaviest items satisfying q across all shards,
// heaviest first: every shard answers TopK(q, k) in parallel (one
// worker per shard on a bounded pool), and the per-shard top-k
// core-sets merge by weight (Lemma 2).
func (s *sharded[Q, V, It]) TopK(q Q, k int) []It {
	per := make([][]It, len(s.shards))
	shard.FanOut(len(s.shards), 0, func(i int) { per[i] = s.shards[i].TopK(q, k) })
	return shard.MergeDesc(per, k, s.p.weight)
}

// Max returns the heaviest item satisfying q (a top-1 query over every
// shard).
func (s *sharded[Q, V, It]) Max(q Q) (It, bool) {
	type best struct {
		it It
		ok bool
	}
	per := make([]best, len(s.shards))
	shard.FanOut(len(s.shards), 0, func(i int) {
		per[i].it, per[i].ok = s.shards[i].Max(q)
	})
	var out It
	found := false
	for _, b := range per {
		if b.ok && (!found || s.p.weight(b.it) > s.p.weight(out)) {
			out, found = b.it, true
		}
	}
	return out, found
}

// ReportAbove streams every item satisfying q with weight ≥ tau, shard
// by shard (order is unspecified, as on a single engine); return false
// from visit to stop early.
func (s *sharded[Q, V, It]) ReportAbove(q Q, tau float64, visit func(It) bool) {
	stopped := false
	for _, e := range s.shards {
		if stopped {
			return
		}
		e.ReportAbove(q, tau, func(it It) bool {
			if !visit(it) {
				stopped = true
			}
			return !stopped
		})
	}
}

// QueryBatchCtx answers one top-k query per element of qs under a
// request-lifecycle contract (see engine.QueryBatchCtx): each shard runs
// the whole batch on its own bounded pool of `parallelism` workers
// (GOMAXPROCS when <= 0), the shards running concurrently, and each
// query's per-shard answers combine through MergeShardResults. The
// deadline is global — one wall clock across the fan-out — while the
// I/O budget is enforced per shard, since shards query disjoint data on
// independent trackers. A result's Stats are the sum of that query's
// cold-cache costs on every shard — still a deterministic function of
// the query alone, invariant in parallelism. Batches must not run
// concurrently with Insert or Delete.
func (s *sharded[Q, V, It]) QueryBatchCtx(ctx QueryCtx, qs []Q, k int, parallelism int) []BatchResult[It] {
	if len(qs) == 0 {
		return nil
	}
	per := make([][]BatchResult[It], len(s.shards))
	shard.FanOut(len(s.shards), 0, func(i int) {
		per[i] = s.shards[i].QueryBatchCtx(ctx, qs, k, parallelism)
	})
	out := make([]BatchResult[It], len(qs))
	col := make([]BatchResult[It], len(s.shards))
	for qi := range qs {
		for si := range per {
			col[si] = per[si][qi]
		}
		out[qi] = MergeShardResults(col, k, s.p.weight)
	}
	return out
}

// MergeShardResults combines one query's per-shard results into its
// global result. It is the single home of the Lemma 2 merge and its
// degradation ladder: the in-process sharded index calls it on engine
// results, and the cluster coordinator on results parsed off the wire.
// Stats are summed, traces concatenated in shard order, the worst
// aborted Outcome and the first non-nil Err kept, and the items
// k-way-merged by weight. Then:
//
//   - every shard OK: the merge is the exact top-k, OutcomeOK;
//   - some shard degraded: every aborted shard already fell back to its
//     local top-1, so the merged head is the exact global maximum — the
//     result keeps that correct top-1 prefix, OutcomeDegraded;
//   - some shard aborted without the fallback: the merged answer could
//     silently miss that shard's items, so Items is emptied and the
//     worst per-shard Outcome and Err are reported — a typed refusal,
//     never a wrong full answer.
func MergeShardResults[It any](per []BatchResult[It], k int, weight func(It) float64) BatchResult[It] {
	var r BatchResult[It]
	lists := make([][]It, len(per))
	for i, pr := range per {
		lists[i] = pr.Items
		r.Stats.Reads += pr.Stats.Reads
		r.Stats.Writes += pr.Stats.Writes
		r.Stats.Hits += pr.Stats.Hits
		r.Trace = append(r.Trace, pr.Trace...)
		if pr.Outcome.aborted() && pr.Outcome > r.Outcome {
			r.Outcome = pr.Outcome
		}
		if r.Err == nil {
			r.Err = pr.Err
		}
	}
	r.Items = shard.MergeDesc(lists, k, weight)
	switch {
	case r.Outcome == OutcomeDegraded:
		if len(r.Items) > 1 {
			r.Items = r.Items[:1]
		}
	case r.Outcome.aborted():
		r.Items = nil
	}
	return r
}

// home returns the engine of weight w's home shard.
func (s *sharded[Q, V, It]) home(w float64) *engine[Q, V, It] {
	return s.shards[shard.Hash(w, len(s.shards))]
}

// Insert adds an item to its home shard, through that engine's admission
// gate: a duplicate weight can only live on the same home, so the gate's
// duplicate check is global.
func (s *sharded[Q, V, It]) Insert(it It) error { return s.home(s.p.weight(it)).Insert(it) }

// InsertBatch adds a batch of items in one cross-shard ingest round: every
// item passes its home shard's admission gate, in batch order, against
// one pending set for the whole batch, so the first rejected item is
// reported exactly as a single engine would report it; then every shard
// bulk-loads its sub-batch in one maintenance round. A batch that fails
// admission inserts nothing anywhere.
func (s *sharded[Q, V, It]) InsertBatch(items []It) error {
	if s.shards[0].dyn == nil {
		return errStatic(s.opts.reduction)
	}
	pending := make(map[float64]struct{}, len(items))
	for _, it := range items {
		if _, err := s.home(s.p.weight(it)).admit(it, pending); err != nil {
			return err
		}
	}
	for sh, sub := range shard.Assign(items, len(s.shards), s.p.weight) {
		if err := s.shards[sh].load(sub); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return nil
}

// Delete removes the item with the given weight from its home shard,
// reporting whether it was present.
func (s *sharded[Q, V, It]) Delete(weight float64) (bool, error) {
	return s.home(weight).Delete(weight)
}

// DeleteBatch removes the items with the given weights from their home
// shards, returning how many were present anywhere: every shard sees one
// DeleteBatch over the weights that hash to it and runs its structural
// maintenance once for the whole batch.
func (s *sharded[Q, V, It]) DeleteBatch(weights []float64) (int, error) {
	found := 0
	for sh, ws := range shard.Assign(weights, len(s.shards), func(w float64) float64 { return w }) {
		n, err := s.shards[sh].DeleteBatch(ws)
		found += n
		if err != nil {
			return found, err
		}
	}
	return found, nil
}

// Items returns a snapshot of the live items across all shards, in
// unspecified order.
func (s *sharded[Q, V, It]) Items() []It {
	var out []It
	for _, e := range s.shards {
		out = append(out, e.Items()...)
	}
	return out
}

// Stats returns the element-wise sum of every shard's simulated I/O
// counters and space usage.
func (s *sharded[Q, V, It]) Stats() Stats {
	out := Stats{Reduction: s.opts.reduction}
	for _, e := range s.shards {
		st := e.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.Hits += st.Hits
		out.Blocks += st.Blocks
	}
	return out
}

// ResetStats zeroes every shard's I/O counters (space is preserved).
func (s *sharded[Q, V, It]) ResetStats() {
	for _, e := range s.shards {
		e.ResetStats()
	}
}

// WriteMetrics renders the shared metrics registry — every shard's
// series under its shard label, plus the topk_shards gauge — in
// Prometheus text exposition format. It errors unless the index was
// built WithMetrics.
func (s *sharded[Q, V, It]) WriteMetrics(w io.Writer) error { return s.ob.writeMetrics(w) }

// slowQueries returns the index's one slow-query ring, every shard's
// entries in one sequence, oldest first.
func (s *sharded[Q, V, It]) slowQueries() []string { return s.ob.slowQueries() }
