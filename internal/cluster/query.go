package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"topk"
)

// This file is the one /query surface shared by topk-serve and the
// coordinator: the request shape, the rule that resolves a request's
// lifecycle overrides against a server's defaults, the renderer from
// batch results to the wire, and the HTTP handler. The two servers
// differ only in the Backend they mount — ServedBackend over one
// in-process index, or the coordinator's fan-out — so their responses
// agree by construction, not by copy.

// QueryRequest is the POST /query body. Queries are problem-shaped;
// GET /problems on topk-serve lists each problem's wire shape.
type QueryRequest struct {
	Queries []json.RawMessage `json:"queries"`
	K       int               `json:"k"`
	// Parallelism picks the batch worker count of a single-process
	// backend (0 = the server default). The coordinator accepts it for
	// parity; its nodes pick their own.
	Parallelism int `json:"parallelism"`
	QueryOptions
}

// QueryOptions are one request's lifecycle overrides, resolved against
// the server's defaults by QueryCtx. DeadlineAt, when set, is an
// absolute deadline that wins over DeadlineMS; it never rides the wire
// (the conformance suite uses it to pin already-expired deadlines
// deterministically).
type QueryOptions struct {
	BudgetIOs  int64     `json:"budget_ios,omitempty"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	DeadlineAt time.Time `json:"-"`
	Degrade    *bool     `json:"degrade,omitempty"`
}

// Limits are a server's request-lifecycle defaults.
type Limits struct {
	BudgetIOs int64         // I/O budget per query per shard (0 = unlimited)
	Deadline  time.Duration // wall-clock deadline per batch (0 = none)
	Degrade   bool          // fall back to the top-1 answer instead of failing
}

// QueryCtx resolves the request's overrides against a server's
// defaults, the one rule every /query backend applies: budget_ios and
// deadline_ms each replace their default when > 0, turn the limit off
// when < 0, and keep the default when 0 (or absent); degrade, when
// present, replaces the default flag. A relative deadline is anchored
// at the call.
func (o QueryOptions) QueryCtx(def Limits) topk.QueryCtx {
	qc := topk.QueryCtx{
		IOBudget:     override(def.BudgetIOs, o.BudgetIOs),
		DegradeToMax: def.Degrade,
	}
	if d := override(def.Deadline, time.Duration(o.DeadlineMS)*time.Millisecond); d > 0 {
		qc.Deadline = time.Now().Add(d)
	}
	if !o.DeadlineAt.IsZero() {
		qc.Deadline = o.DeadlineAt
	}
	if o.Degrade != nil {
		qc.DegradeToMax = *o.Degrade
	}
	return qc
}

// override applies one request override to its default: > 0 replaces
// it, < 0 turns the limit off, 0 keeps it.
func override[T ~int64](def, req T) T {
	switch {
	case req > 0:
		return req
	case req < 0:
		return 0
	}
	return def
}

// Render puts batch results into the /query wire shape, one ShardResult
// per query. An empty answer renders as [], never null. topk-serve's
// responses and a node's shard responses both come from here.
func Render(res []topk.BatchResult[topk.ServedItem]) []ShardResult {
	out := make([]ShardResult, len(res))
	for i, r := range res {
		out[i] = ShardResult{
			Items: r.Items,
			Reads: r.Stats.Reads, Writes: r.Stats.Writes, Hits: r.Stats.Hits, IOs: r.Stats.IOs(),
			Outcome: r.Outcome.String(),
		}
		if out[i].Items == nil {
			out[i].Items = []topk.ServedItem{}
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
		}
	}
	return out
}

// parse recovers the typed result a node rendered: the outcome through
// topk.ParseOutcome (an unknown string reads as OK), the error text as
// an error.
func (r ShardResult) parse() topk.BatchResult[topk.ServedItem] {
	br := topk.BatchResult[topk.ServedItem]{
		Items: r.Items,
		Stats: topk.QueryStats{Reads: r.Reads, Writes: r.Writes, Hits: r.Hits},
	}
	br.Outcome, _ = topk.ParseOutcome(r.Outcome)
	if r.Error != "" {
		br.Err = errors.New(r.Error)
	}
	return br
}

// Backend answers one validated /query request with one result per
// query. An error is the request's fault: QueryHandler answers it with
// 400 and the error text.
type Backend func(ctx context.Context, req QueryRequest) ([]ShardResult, error)

// QueryHandler is the POST /query handler of topk-serve and of the
// coordinator. It rejects other methods with 405, reads at most 1 MiB of
// body, requires 1..10000 queries and 1 ≤ k ≤ 1000, runs backend, and
// writes the {elapsed, k, problem, results, shards} envelope. The
// envelope is encoded from a map, so its keys come out sorted; elapsed
// times the backend call.
func QueryHandler(problem string, shards int, backend Backend) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req QueryRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(req.Queries) == 0 || len(req.Queries) > 10000 {
			http.Error(w, "need 1..10000 queries", http.StatusBadRequest)
			return
		}
		if req.K <= 0 || req.K > 1000 {
			http.Error(w, "need 1 <= k <= 1000", http.StatusBadRequest)
			return
		}
		start := time.Now()
		results, err := backend(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"problem": problem,
			"shards":  shards,
			"k":       req.K,
			"elapsed": time.Since(start).String(),
			"results": results,
		})
	})
}

// ServedBackend answers /query from one in-process index, which is how
// topk-serve serves. It decodes every query, resolves the request's
// limits against def, and runs the batch with the request's parallelism
// (the given default when 0) while holding lock, which guards the index
// against updates (topk-serve passes its index lock's read side).
func ServedBackend(ix topk.Served, def Limits, parallelism int, lock sync.Locker) Backend {
	return func(_ context.Context, req QueryRequest) ([]ShardResult, error) {
		qs, err := decodeQueries(ix, req.Queries)
		if err != nil {
			return nil, err
		}
		p := req.Parallelism
		if p == 0 {
			p = parallelism
		}
		lock.Lock()
		defer lock.Unlock()
		return Render(ix.QueryBatchCtx(req.QueryCtx(def), qs, req.K, p)), nil
	}
}

// decodeQueries parses a batch of wire queries with ix's decoder; the
// first undecodable one fails the batch as "query i: …".
func decodeQueries(ix topk.Served, raws []json.RawMessage) ([]any, error) {
	qs := make([]any, len(raws))
	for i, raw := range raws {
		q, err := ix.DecodeQuery(raw)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}
