package topk

import (
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
// every problem × reduction at several shard counts. Updates route to
// the owning shard, so dynamization (WithUpdates, or the native Theorem
// 2 path) composes per shard, and each shard's build, insert, and query
// I/Os stay attributed to that shard's tracker.
//
// The registry is the only way in: ProblemSpec.BuildSharded, Restore and
// LoadSnapshot put a sharded index behind the type-erased Served
// surface. MergeShardResults, the per-query merge and its degradation
// ladder, is exported because the cluster coordinator applies the very
// same function to per-shard answers that arrive over the wire.

// ShardPolicy selects how a sharded index assigns items to shards.
type ShardPolicy int

const (
	// ShardByWeight routes an item to shard hash(weight) mod S. Weights
	// are the global item identity, so build, Insert, and Delete all
	// agree on the owner with no routing table. The default.
	ShardByWeight ShardPolicy = iota
	// ShardRoundRobin deals items to shards in rotation, which keeps
	// shard sizes within one item of each other even for adversarial
	// weight distributions. Deletes are routed through the index's
	// weight→shard table.
	ShardRoundRobin
)

// String returns the policy's name.
func (p ShardPolicy) String() string {
	switch p {
	case ShardByWeight:
		return "ShardByWeight"
	case ShardRoundRobin:
		return "ShardRoundRobin"
	}
	return fmt.Sprintf("ShardPolicy(%d)", int(p))
}

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
	// owner maps each live weight to its shard, the routing table for
	// Delete (and the global duplicate-weight gate) under any policy.
	owner map[float64]int
	// rr is the round-robin insert cursor (ShardRoundRobin only).
	rr  int
	reg *obs.Registry // shared metrics registry, nil unless WithMetrics
}

// newSharded partitions items by the options' shard policy and builds
// one engine per shard. All shards share one metrics registry (series
// are distinguished by a shard label) but nothing else: trackers,
// structures, and caches are fully independent.
func newSharded[Q, V, It any](p problem[Q, V, It], items []It, shards int, opts []Option) (*sharded[Q, V, It], error) {
	if shards < 1 {
		return nil, fmt.Errorf("topk: need at least 1 shard, got %d", shards)
	}
	o := applyOptions(opts)
	s := &sharded[Q, V, It]{p: p, opts: o, owner: make(map[float64]int, len(items))}

	ws := make([]float64, len(items))
	for i, it := range items {
		ws[i] = p.weight(it)
	}
	parts := shard.Assign(ws, shards, o.policy == ShardByWeight)
	for sh, idxs := range parts {
		for _, i := range idxs {
			if prev, dup := s.owner[ws[i]]; dup && prev >= 0 {
				return nil, fmt.Errorf("topk: duplicate weight %v", ws[i])
			}
			s.owner[ws[i]] = sh
		}
	}
	s.rr = len(items) % shards

	if o.metrics {
		s.reg = obs.NewRegistry()
		s.reg.NewGauge("topk_shards", "Shards in the partitioned index.",
			obs.Label{Key: "index", Value: p.name}).Set(int64(shards))
	}
	s.shards = make([]*engine[Q, V, It], shards)
	for sh, idxs := range parts {
		sub := make([]It, len(idxs))
		for j, i := range idxs {
			sub[j] = items[i]
		}
		shOpts := make([]Option, len(opts), len(opts)+2)
		copy(shOpts, opts)
		shOpts = append(shOpts, withShardObs(s.reg, strconv.Itoa(sh)))
		eng, err := newEngine(p, sub, shOpts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
		s.shards[sh] = eng
	}
	return s, nil
}

// withShardObs marks an engine as one shard: metric series go to the
// shared registry under a shard label.
func withShardObs(reg *obs.Registry, label string) Option {
	return func(o *Options) { o.obsReg = reg; o.shardLabel = label }
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

// admitInsert is the sharded validation gate shared by Insert and
// InsertBatch: the same geometry and weight-finiteness checks as a
// single engine, plus global (cross-shard) weight uniqueness against
// the owner map. Both paths report identical error strings — the
// conformance suite pins this — so a caller cannot tell from an error
// which ingest path rejected the item.
func (s *sharded[Q, V, It]) admitInsert(it It) (float64, error) {
	if err := s.shards[0].validateItem(it); err != nil {
		return 0, err
	}
	w := s.p.weight(it)
	if _, dup := s.owner[w]; dup {
		return 0, fmt.Errorf("topk: duplicate weight %v", w)
	}
	return w, nil
}

// routeInsert picks the owning shard for an admitted weight, given the
// round-robin cursor position rr (ignored under ShardByWeight).
func (s *sharded[Q, V, It]) routeInsert(w float64, rr int) int {
	if s.opts.policy == ShardRoundRobin {
		return rr
	}
	return shard.Hash(w, len(s.shards))
}

// Insert adds an item to the shard the policy selects, after the same
// validation gate as a single engine: geometry, weight finiteness, and
// global (cross-shard) weight uniqueness.
func (s *sharded[Q, V, It]) Insert(it It) error {
	if s.shards[0].dyn == nil {
		return errStatic(s.opts.reduction)
	}
	w, err := s.admitInsert(it)
	if err != nil {
		return err
	}
	sh := s.routeInsert(w, s.rr)
	if err := s.shards[sh].Insert(it); err != nil {
		return err
	}
	if s.opts.policy == ShardRoundRobin {
		s.rr = (s.rr + 1) % len(s.shards)
	}
	s.owner[w] = sh
	return nil
}

// InsertBatch adds a batch of items in one cross-shard ingest round:
// one admission pass over the whole batch (the Insert gate item by
// item, plus one duplicate sweep within the batch), then the policy
// routes each item to its owning shard and every shard bulk-loads its
// sub-batch with a single engine InsertBatch. A batch that fails
// admission inserts nothing anywhere.
func (s *sharded[Q, V, It]) InsertBatch(items []It) error {
	if s.shards[0].dyn == nil {
		return errStatic(s.opts.reduction)
	}
	seen := make(map[float64]struct{}, len(items))
	sub := make([][]It, len(s.shards))
	subW := make([][]float64, len(s.shards))
	rr := s.rr
	for _, it := range items {
		w, err := s.admitInsert(it)
		if err != nil {
			return err
		}
		if _, dup := seen[w]; dup {
			return fmt.Errorf("topk: duplicate weight %v", w)
		}
		seen[w] = struct{}{}
		sh := s.routeInsert(w, rr)
		if s.opts.policy == ShardRoundRobin {
			rr = (rr + 1) % len(s.shards)
		}
		sub[sh] = append(sub[sh], it)
		subW[sh] = append(subW[sh], w)
	}
	for sh, batch := range sub {
		if len(batch) == 0 {
			continue
		}
		if err := s.shards[sh].InsertBatch(batch); err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
		for _, w := range subW[sh] {
			s.owner[w] = sh
		}
	}
	s.rr = rr
	return nil
}

// Delete removes the item with the given weight from its owning shard,
// reporting whether it was present anywhere.
func (s *sharded[Q, V, It]) Delete(weight float64) (bool, error) {
	if s.shards[0].dyn == nil {
		return false, errStatic(s.opts.reduction)
	}
	sh, ok := s.owner[weight]
	if !ok {
		return false, nil
	}
	deleted, err := s.shards[sh].Delete(weight)
	if err != nil || !deleted {
		return deleted, err
	}
	delete(s.owner, weight)
	return true, nil
}

// DeleteBatch removes the items with the given weights from their
// owning shards, returning how many were present anywhere. The owner
// map routes each weight, so every shard sees one DeleteBatch over
// exactly the weights it holds and runs its structural maintenance
// once for the whole batch.
func (s *sharded[Q, V, It]) DeleteBatch(weights []float64) (int, error) {
	if s.shards[0].dyn == nil {
		return 0, errStatic(s.opts.reduction)
	}
	sub := make([][]float64, len(s.shards))
	for _, w := range weights {
		sh, ok := s.owner[w]
		if !ok {
			continue
		}
		sub[sh] = append(sub[sh], w)
		delete(s.owner, w)
	}
	found := 0
	for sh, ws := range sub {
		if len(ws) == 0 {
			continue
		}
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
func (s *sharded[Q, V, It]) WriteMetrics(w io.Writer) error {
	if s.reg == nil {
		return fmt.Errorf("topk: metrics not enabled; build the index with WithMetrics()")
	}
	return s.reg.WritePrometheus(w)
}
