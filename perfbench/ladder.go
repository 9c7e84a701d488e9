package main

import (
	"math"
	"strings"
	"time"

	"topk"
)

// The ladder times the same query at successive public calls, each of
// which adds one layer to the one below:
//
//	ReportAbove(q, τ_k)      black-box prioritized query (bb)
//	TopK(q, k)               + the Theorem 1/2 reduction (core)
//	QueryBatchCtx([q], k, 1) + per-query EM views and the batch pool (em)
//
// serve.go adds the serving-options, shard and HTTP rungs on top. A
// layer's self time for a query is its rung minus the rung below; the
// reported value is the median over the fixed query sample.

// ladderReps is how often each call is repeated per query; the rung time
// is the fastest repetition, which drops one-off scheduler stalls.
const ladderReps = 3

func timeMin(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

// rung holds one query's in-process rung times and view counters.
type rung struct {
	bb, core, view time.Duration
	bbItems        int
	reads, hits    int64
	answered       bool // false when TopK(q, k) is empty: q has no τ_k
}

// climb times the in-process rungs of every query in qs on ix. τ_k is
// the weight of the k-th (or last) answer of TopK(q, k); a query with no
// answer has no τ_k and is skipped.
func climb(ix topk.Served, qs []any, k int) []rung {
	out := make([]rung, len(qs))
	for i, q := range qs {
		top := ix.TopK(q, k)
		if len(top) == 0 {
			continue
		}
		tau := top[len(top)-1].Weight
		r := &out[i]
		r.bb = timeMin(ladderReps, func() { r.bbItems = len(ix.ReportAbove(q, tau)) })
		r.core = timeMin(ladderReps, func() { ix.TopK(q, k) })
		var res []topk.BatchResult[topk.ServedItem]
		r.view = timeMin(ladderReps, func() { res = ix.QueryBatchCtx(topk.QueryCtx{}, []any{q}, k, 1) })
		r.reads, r.hits = res[0].Stats.Reads, res[0].Stats.Hits
		r.answered = true
	}
	return out
}

// addRungLayers reports the bb, core and em layers of a climbed sample.
func addRungLayers(r *result, rs []rung) {
	var bb, items, coreSelf, slow, viewSelf, nsTouch, touches []float64
	var reads, hits int64
	for _, x := range rs {
		if !x.answered {
			continue
		}
		bb = append(bb, us(x.bb))
		items = append(items, float64(x.bbItems))
		coreSelf = append(coreSelf, us(x.core-x.bb))
		slow = append(slow, float64(x.core)/float64(x.bb))
		viewSelf = append(viewSelf, us(x.view-x.core))
		t := x.reads + x.hits
		touches = append(touches, float64(t))
		if t > 0 {
			nsTouch = append(nsTouch, float64(x.view-x.core)/float64(t))
		}
		reads += x.reads
		hits += x.hits
	}
	r.setLayer("bb.pri_us", median(bb))
	r.setLayer("bb.pri_items", mean(items))
	r.setLayer("core.self_us", median(coreSelf))
	r.setLayer("core.slowdown", median(slow))
	r.setLayer("em.view_self_us", median(viewSelf))
	r.setLayer("em.touches_per_query", mean(touches))
	r.setLayer("em.view_ns_per_touch", median(nsTouch))
	if reads+hits > 0 {
		r.setLayer("em.hit_rate", float64(hits)/float64(reads+hits))
	}
	r.note("ladder: %d sampled queries with an answer", len(bb))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// addCoreCounts reports the reduction's own phase counts from the
// existing trace spans of results computed on a WithTracing index.
func addCoreCounts(r *result, res []topk.BatchResult[topk.ServedItem]) {
	var t2Rounds, t2Fails, t1Probes, t1Aborts, streamed, returned int64
	for _, br := range res {
		returned += int64(len(br.Items))
		for _, ev := range br.Trace {
			p := ev.Phase
			switch {
			case strings.HasPrefix(p, "t2.round."):
				t2Rounds++
				if p == "t2.round.fail" {
					t2Fails++
				}
			case strings.HasPrefix(p, "t1.probe."):
				t1Probes++
				if p == "t1.probe.abort" {
					t1Aborts++
				}
			}
			// Every phase that reports items streams them: probes, harvests,
			// fallbacks and full scans. Level and round wrappers do not.
			if strings.Contains(p, ".probe.") || strings.Contains(p, ".harvest") ||
				strings.HasSuffix(p, ".fallback") || strings.HasSuffix(p, ".scan") {
				streamed += ev.Arg
			}
		}
	}
	if len(res) > 0 {
		r.setLayer("core.t2_rounds_per_query", float64(t2Rounds)/float64(len(res)))
	}
	r.setLayer("core.t2_fail_share", ratio(t2Fails, t2Rounds))
	r.setLayer("core.t1_probe_abort_share", ratio(t1Aborts, t1Probes))
	r.setLayer("core.streamed_per_returned", ratio(streamed, returned))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addOverhead reports the traced loop's timing metrics minus the
// untraced loop's: the cost of tracing itself.
func addOverhead(r *result, untraced, traced durations, wallU, wallT time.Duration) {
	r.setLayer("trace.qps_delta", float64(len(traced))/wallT.Seconds()-float64(len(untraced))/wallU.Seconds())
	r.setLayer("trace.p50_ms_delta", traced.pct(50)-untraced.pct(50))
	r.setLayer("trace.p99_ms_delta", traced.pct(99)-untraced.pct(99))
}
