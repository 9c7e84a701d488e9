package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"time"

	"topk"
)

// buildTimed builds spec's index sz.setups times, each after a forced
// GC, and returns the last build with the median build time in seconds.
func buildTimed(spec topk.ProblemSpec, sz sizes, opts ...topk.Option) (topk.Served, float64, error) {
	var ds []float64
	var ix topk.Served
	for i := 0; i < sz.setups; i++ {
		ix = nil
		runtime.GC()
		t := time.Now()
		b, err := spec.Build(sz.n, indexSeed, opts...)
		if err != nil {
			return nil, 0, fmt.Errorf("building %s: %w", spec.Name, err)
		}
		ds = append(ds, time.Since(t).Seconds())
		ix = b
	}
	return ix, median(ds), nil
}

func pick(qs []any, m int) []any {
	idx := sampleIndexes(len(qs), m)
	out := make([]any, len(idx))
	for j, i := range idx {
		out[j] = qs[i]
	}
	return out
}

// ---- lib-dominance-t1 ----------------------------------------------------

// lib-dominance-t1: an in-process Theorem 1 (WorstCase) dominance index;
// one goroutine calls Served.TopK(q, 100) back to back. No views, no
// observability, no shards, no HTTP.
const libK = 100

func runLib(cfg config) (*result, error) {
	r := newResult()
	sz := cfg.size
	spec, _ := topk.ProblemByName("dominance")
	opts := []topk.Option{topk.WithReduction(topk.WorstCase)}
	ix, setup, err := buildTimed(spec, sz, opts...)
	if err != nil {
		return nil, err
	}
	buildIOs := ix.Stats().IOs()
	r.setE2E("setup_s", setup)
	// The index is static: its only write is the build.
	r.setE2E("updates_per_s", float64(sz.n)/setup)
	r.setE2E("ios_per_update", float64(buildIOs)/float64(sz.n))

	qs := ix.GenQueries(sz.ops, cfg.seed)
	for _, q := range ix.GenQueries(sz.warm, cfg.seed+1) {
		ix.TopK(q, libK)
	}
	var loop libResult
	if cfg.trace {
		// Untraced and traced halves run in the order U T T U, so a steady
		// drift in machine speed cancels from the overhead. The traced
		// twin is built WithTracing; one index is alive at a time.
		h := len(qs) / 2
		u1 := libLoop(ix, qs, 0, h, nil)
		addRungLayers(r, climb(ix, pick(qs, sz.sample), libK))
		ix = nil
		runtime.GC()
		tw, err := spec.Build(sz.n, indexSeed, append(opts, topk.WithTracing())...)
		if err != nil {
			return nil, fmt.Errorf("building the traced twin: %w", err)
		}
		traced := libLoop(tw, qs, 0, h, &r.spans).then(libLoop(tw, qs, h, len(qs), &r.spans))
		addCoreCounts(r, tw.QueryBatch(pick(qs, sz.sample), libK, 1))
		runtime.GC()
		if ix, err = spec.Build(sz.n, indexSeed, opts...); err != nil {
			return nil, fmt.Errorf("rebuilding %s: %w", spec.Name, err)
		}
		loop = u1.then(libLoop(ix, qs, h, len(qs), nil))
		addOverhead(r, loop.lat, traced.lat, loop.wall, traced.wall)
		runtimeLayer(r, loop.proc, len(qs))
		if traced.digest() != loop.digest() {
			r.fail(1, "the traced twin answered differently")
		}
		latencyMetrics(r, loop.lat, float64(len(qs))/loop.wall.Seconds())
		r.setE2E("alloc_kb_per_query", float64(loop.proc.allocBytes)/float64(len(qs))/1024)
	} else {
		loop = libLoop(ix, qs, 0, len(qs), nil)
		back := libLoop(ix, reversed(qs), 0, len(qs), nil)
		if hashAll(reversed(back.answers)) != loop.digest() {
			r.fail(1, "the reverse pass answered differently")
		}
		lat, qps := bestOf(loop.lat, reversed(back.lat), loop.wall, back.wall)
		latencyMetrics(r, lat, qps)
		r.setE2E("alloc_kb_per_query", float64(loop.proc.plus(back.proc).allocBytes)/float64(2*len(qs))/1024)
	}
	r.attempted = 2 * len(qs)
	r.digest = loop.digest()

	// Cold-view I/O cost from a QueryBatch pass over the same queries,
	// outside the timed loop; its answers must equal TopK's.
	var ios int64
	bad := 0
	for lo := 0; lo < len(qs); lo += 256 {
		hi := min(lo+256, len(qs))
		for j, br := range ix.QueryBatch(qs[lo:hi], libK, 2) {
			ios += br.Stats.IOs()
			if answerHash(br.Items) != loop.answers[lo+j] {
				bad++
			}
		}
	}
	r.setE2E("ios_per_query", float64(ios)/float64(len(qs)))
	r.fail(bad, "QueryBatch answers differ from TopK")
	bad = 0
	for _, i := range sampleIndexes(len(qs), sz.sample) {
		if answerHash(topOf(ix.Oracle(qs[i]), libK)) != loop.answers[i] {
			bad++
		}
	}
	r.fail(bad, "TopK answers differ from Oracle")
	r.setE2E("live_heap_mb", liveHeapMiB())
	runtime.KeepAlive(ix)
	return r, nil
}

// libResult is a timed pass over a range of the queries.
type libResult struct {
	lat     durations
	wall    time.Duration
	answers []uint64 // per-query answer hash
	proc    procStats
}

// then appends a later pass.
func (a libResult) then(b libResult) libResult {
	return libResult{append(a.lat, b.lat...), a.wall + b.wall, append(a.answers, b.answers...), a.proc.plus(b.proc)}
}

func (a libResult) digest() uint64 { return hashAll(a.answers) }

// libLoop is the timed loop: TopK(q, 100) for queries lo..hi-1, back to
// back on one goroutine. With spans non-nil each query gets a span.
func libLoop(ix topk.Served, qs []any, lo, hi int, spans *spanLog) libResult {
	lr := libResult{lat: make(durations, 0, hi-lo), answers: make([]uint64, 0, hi-lo)}
	runtime.GC()
	before := readProc()
	t0 := time.Now()
	for i := lo; i < hi; i++ {
		st := time.Now()
		ans := ix.TopK(qs[i], libK)
		en := time.Now()
		lr.lat = append(lr.lat, en.Sub(st))
		if spans != nil {
			spans.add("lib.topk", st, en, -1, i)
		}
		lr.answers = append(lr.answers, answerHash(ans))
	}
	lr.wall = time.Since(t0)
	lr.proc = readProc().since(before)
	return lr
}

// ---- churn-ortho -----------------------------------------------------------

// churn-ortho: an in-process Expected ortho index dynamized by the
// logarithmic overlay, under expiry churn. Each round inserts a batch of
// fresh items, deletes the batch of oldest live items, then runs
// single-query batches.
const churnK = 10

// churnPlan is the seeded operation sequence of one run.
type churnPlan struct {
	inserts [][]any   // per round, decoded fresh items
	expiry  []float64 // weights in delete order: base items, then inserts
	queries []any     // per round, sz.queries consecutive queries
}

// makeChurnPlan lists the base items once through Oracle on a covering
// box, orders them by a seeded shuffle, and draws fresh items whose
// weights collide with no base or earlier fresh item.
func makeChurnPlan(ix topk.Served, sz sizes, seed uint64) (churnPlan, error) {
	var p churnPlan
	cover, err := ix.DecodeQuery(json.RawMessage(`{"lo": [-1, -1], "hi": [101, 101]}`))
	if err != nil {
		return p, fmt.Errorf("decoding the covering box: %w", err)
	}
	base := ix.Oracle(cover)
	if len(base) != sz.n {
		return p, fmt.Errorf("covering box lists %d items, want %d", len(base), sz.n)
	}
	rng := rand.New(rand.NewPCG(seed, 0x636875726e))
	used := make(map[float64]bool, sz.n+sz.ops*sz.batch)
	for _, it := range base {
		p.expiry = append(p.expiry, it.Weight)
		used[it.Weight] = true
	}
	rng.Shuffle(len(p.expiry), func(i, j int) { p.expiry[i], p.expiry[j] = p.expiry[j], p.expiry[i] })
	p.inserts = make([][]any, sz.ops)
	for round := range p.inserts {
		batch := make([]any, sz.batch)
		for i := range batch {
			w := rng.Float64() * 1e6
			for used[w] {
				w = rng.Float64() * 1e6
			}
			used[w] = true
			raw := `{"coords": [` + strconv.FormatFloat(rng.Float64()*100, 'g', -1, 64) + `, ` +
				strconv.FormatFloat(rng.Float64()*100, 'g', -1, 64) + `], "weight": ` +
				strconv.FormatFloat(w, 'g', -1, 64) + `}`
			it, err := ix.DecodeItem(json.RawMessage(raw))
			if err != nil {
				return p, fmt.Errorf("decoding a fresh item: %w", err)
			}
			batch[i] = it
			p.expiry = append(p.expiry, w)
		}
		p.inserts[round] = batch
	}
	p.queries = ix.GenQueries(sz.ops*sz.queries, seed)
	return p, nil
}

// churnResult is a replay of a range of the plan's rounds.
type churnResult struct {
	ins, del, q  durations
	updItems     int
	updIOs, qIOs int64
	qAlloc       uint64
	traces       []topk.BatchResult[topk.ServedItem]
	answers      []uint64 // per-query answer hash
	failures     []string
	proc         procStats
}

// then appends a later range.
func (a churnResult) then(b churnResult) churnResult {
	return churnResult{
		ins: append(a.ins, b.ins...), del: append(a.del, b.del...), q: append(a.q, b.q...),
		updItems: a.updItems + b.updItems, updIOs: a.updIOs + b.updIOs, qIOs: a.qIOs + b.qIOs, qAlloc: a.qAlloc + b.qAlloc,
		traces: append(a.traces, b.traces...), answers: append(a.answers, b.answers...),
		failures: append(a.failures, b.failures...), proc: a.proc.plus(b.proc),
	}
}

type timedOp struct {
	name       string
	start, end time.Time
}

// churnLoop replays rounds lo..hi-1 of the plan on ix. With spans non-nil
// every round and every operation in it gets a span, and the query traces
// are kept. Without queries it replays only the updates.
func churnLoop(ix topk.Served, p churnPlan, sz sizes, lo, hi int, spans *spanLog, withQueries bool) churnResult {
	var cr churnResult
	runtime.GC()
	before := readProc()
	for round := lo; round < hi; round++ {
		rs := time.Now()
		s0 := ix.Stats()
		st := time.Now()
		err := ix.InsertBatch(p.inserts[round])
		en := time.Now()
		cr.ins = append(cr.ins, en.Sub(st))
		if err != nil {
			cr.failures = append(cr.failures, fmt.Sprintf("round %d InsertBatch: %v", round, err))
		}
		ops := []timedOp{{"dyn.insert_batch", st, en}}
		dels := p.expiry[round*sz.batch : (round+1)*sz.batch]
		st = time.Now()
		n, err := ix.DeleteBatch(dels)
		en = time.Now()
		cr.del = append(cr.del, en.Sub(st))
		if err != nil || n != len(dels) {
			cr.failures = append(cr.failures, fmt.Sprintf("round %d DeleteBatch removed %d of %d: %v", round, n, len(dels), err))
		}
		ops = append(ops, timedOp{"dyn.delete_batch", st, en})
		cr.updIOs += ix.Stats().IOs() - s0.IOs()
		cr.updItems += len(p.inserts[round]) + len(dels)
		if withQueries {
			a0 := readProc().allocBytes
			for _, q := range p.queries[round*sz.queries : (round+1)*sz.queries] {
				st = time.Now()
				res := ix.QueryBatchCtx(topk.QueryCtx{}, []any{q}, churnK, 1)
				en = time.Now()
				cr.q = append(cr.q, en.Sub(st))
				ops = append(ops, timedOp{"query", st, en})
				br := res[0]
				cr.qIOs += br.Stats.IOs()
				if br.Outcome != topk.OutcomeOK || br.Err != nil {
					cr.failures = append(cr.failures, fmt.Sprintf("round %d query outcome %v: %v", round, br.Outcome, br.Err))
				}
				cr.answers = append(cr.answers, answerHash(br.Items))
				if spans != nil {
					cr.traces = append(cr.traces, br)
				}
			}
			cr.qAlloc += readProc().allocBytes - a0
		}
		if spans != nil {
			parent := spans.add("churn.round", rs, time.Now(), -1, round)
			for _, op := range ops {
				spans.add(op.name, op.start, op.end, parent, round)
			}
		}
	}
	cr.proc = readProc().since(before)
	return cr
}

func runChurn(cfg config) (*result, error) {
	r := newResult()
	sz := cfg.size
	spec, _ := topk.ProblemByName("ortho")
	ix, setup, err := buildTimed(spec, sz, topk.WithUpdates())
	if err != nil {
		return nil, err
	}
	r.setE2E("setup_s", setup)
	plan, err := makeChurnPlan(ix, sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	rounds := len(plan.inserts)
	var loop churnResult
	if cfg.trace {
		// The traced twin replays the same plan WithTracing. Both overlays
		// are small, so the halves interleave as U T T U to cancel drift.
		tw, err := spec.Build(sz.n, indexSeed, topk.WithUpdates(), topk.WithTracing())
		if err != nil {
			return nil, fmt.Errorf("building the traced twin: %w", err)
		}
		var fresh int64
		for _, br := range tw.QueryBatch(plan.queries, churnK, 2) {
			fresh += br.Stats.IOs()
		}
		h := rounds / 2
		u1 := churnLoop(ix, plan, sz, 0, h, nil, true)
		traced := churnLoop(tw, plan, sz, 0, h, &r.spans, true)
		traced = traced.then(churnLoop(tw, plan, sz, h, rounds, &r.spans, true))
		loop = u1.then(churnLoop(ix, plan, sz, h, rounds, nil, true))
		addOverhead(r, loop.q, traced.q, loop.q.sum(), traced.q.sum())
		addCoreCounts(r, traced.traces)
		r.setLayer("dyn.overfetch", float64(traced.qIOs)/float64(fresh))
		ins, del := r.spans.durationsOf("dyn.insert_batch"), r.spans.durationsOf("dyn.delete_batch")
		r.setLayer("dyn.insert_batch_p50_us", ins.pct(50)*1e3)
		r.setLayer("dyn.insert_batch_p99_us", ins.pct(99)*1e3)
		r.setLayer("dyn.delete_batch_p50_us", del.pct(50)*1e3)
		r.setLayer("dyn.delete_batch_p99_us", del.pct(99)*1e3)
		runtimeLayer(r, loop.proc, len(loop.q))
		r.attempted += 2*rounds + len(plan.queries)
		r.failAll(traced.failures)
		if hashAll(traced.answers) != hashAll(loop.answers) {
			r.fail(1, "the traced twin answered differently")
		}
	} else {
		loop = churnLoop(ix, plan, sz, 0, rounds, nil, true)
	}
	r.attempted += 2*rounds + len(plan.queries) + sz.sample
	r.failAll(loop.failures)
	latencyMetrics(r, loop.q, float64(len(loop.q))/loop.q.sum().Seconds())
	r.setE2E("ios_per_query", float64(loop.qIOs)/float64(len(loop.q)))
	r.setE2E("alloc_kb_per_query", float64(loop.qAlloc)/float64(len(loop.q))/1024)
	upd := loop.ins.sum() + loop.del.sum()
	r.setE2E("updates_per_s", float64(loop.updItems)/upd.Seconds())
	r.setE2E("ios_per_update", float64(loop.updIOs)/float64(loop.updItems))
	r.digest = hashAll(loop.answers)

	// After the last round: the live count is back to n and a fixed
	// sample of fresh queries answers as Oracle does.
	if ix.Len() != sz.n {
		r.fail(1, "Len() = %d after churn, want %d", ix.Len(), sz.n)
	}
	check := ix.GenQueries(sz.sample, cfg.seed+2)
	bad := 0
	for i, br := range ix.QueryBatchCtx(topk.QueryCtx{}, check, churnK, 1) {
		if br.Outcome != topk.OutcomeOK || !sameWeights(br.Items, topOf(ix.Oracle(check[i]), churnK)) {
			bad++
		}
	}
	r.fail(bad, "answers differ from Oracle after churn")
	r.setE2E("live_heap_mb", liveHeapMiB())
	runtime.KeepAlive(ix)

	if cfg.trace {
		addRungLayers(r, climb(ix, pick(plan.queries, sz.sample), churnK))
		if err := overlayCounters(r, spec, plan, sz); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// overlayCounters replays the plan's updates on a WithMetrics twin and
// reads the overlay's own flush, rebuild and level counters.
func overlayCounters(r *result, spec topk.ProblemSpec, plan churnPlan, sz sizes) error {
	mw, err := spec.Build(sz.n, indexSeed, topk.WithUpdates(), topk.WithMetrics())
	if err != nil {
		return fmt.Errorf("building the metrics twin: %w", err)
	}
	churnLoop(mw, plan, sz, 0, len(plan.inserts), nil, false)
	var b strings.Builder
	if err := mw.WriteMetrics(&b); err != nil {
		return fmt.Errorf("reading the overlay metrics: %w", err)
	}
	for name, metric := range map[string]string{
		"dyn.flushes": "topk_flushes_total", "dyn.rebuilds": "topk_rebuilds_total", "dyn.levels": "topk_overlay_levels",
	} {
		v, err := promValue(b.String(), metric)
		if err != nil {
			return err
		}
		r.setLayer(name, v)
	}
	return nil
}

// promValue returns the value of the first sample of a metric in a
// Prometheus text exposition.
func promValue(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+"{") || strings.HasPrefix(line, name+" ") {
			f := strings.Fields(line)
			return strconv.ParseFloat(f[len(f)-1], 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}
