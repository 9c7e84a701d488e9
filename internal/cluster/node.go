package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"topk"
	"topk/internal/obs"
)

// Node hosts a subset of a partitioned index's shards, each restored
// from its own snapshot file as a standalone one-shard index
// (topk.LoadShard). It answers shard requests in-process (as a Replica)
// and over HTTP (Handler). A node is read-only: bootstrap loads the
// shards once and queries share them without locking, matching the
// engine's any-number-of-readers contract.
type Node struct {
	id      string
	problem string
	shards  map[int]topk.Served

	reg      *obs.Registry
	requests *obs.Counter
	queries  *obs.Counter
}

// NewNode builds a node serving the given shards of one problem's
// partitioned index.
func NewNode(id, problem string, shards map[int]topk.Served) *Node {
	n := &Node{id: id, problem: problem, shards: shards, reg: obs.NewRegistry()}
	n.requests = n.reg.NewCounter("topk_node_shard_requests_total",
		"Shard requests answered by this node.")
	n.queries = n.reg.NewCounter("topk_node_queries_total",
		"Individual queries answered across all shard requests.")
	n.reg.NewGauge("topk_node_shards", "Shards this node serves.").Set(int64(len(shards)))
	items := 0
	for _, sv := range shards {
		items += sv.Len()
	}
	n.reg.NewGauge("topk_node_items", "Live items across this node's shards.").Set(int64(items))
	return n
}

// ID returns the node's cluster ID.
func (n *Node) ID() string { return n.id }

// ShardIDs returns the shards this node serves, ascending.
func (n *Node) ShardIDs() []int {
	out := make([]int, 0, len(n.shards))
	for s := range n.shards {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Info describes the node's serving state.
func (n *Node) Info(context.Context) (NodeInfo, error) {
	items := 0
	for _, sv := range n.shards {
		items += sv.Len()
	}
	return NodeInfo{ID: n.id, Problem: n.problem, Shards: n.ShardIDs(), Items: items}, nil
}

// QueryShard answers one shard request: decode the wire queries, build
// the QueryCtx the request describes, run the shard's engine on the
// batch path, and render per-query results in the /query wire shape.
// The result is a deterministic function of (request, shard snapshot) —
// the property hedged reads rely on.
func (n *Node) QueryShard(_ context.Context, req ShardRequest) (ShardResponse, error) {
	sv, ok := n.shards[req.Shard]
	if !ok {
		return ShardResponse{}, fmt.Errorf("node %s does not serve shard %d (serves %v)", n.id, req.Shard, n.ShardIDs())
	}
	if len(req.Queries) == 0 {
		return ShardResponse{}, fmt.Errorf("empty query batch")
	}
	if req.K < 1 {
		return ShardResponse{}, fmt.Errorf("need k >= 1, got %d", req.K)
	}
	qs, err := decodeQueries(sv, req.Queries)
	if err != nil {
		return ShardResponse{}, err
	}
	ctx := topk.QueryCtx{IOBudget: req.BudgetIOs, DegradeToMax: req.Degrade}
	switch {
	case req.DeadlineMS > 0:
		ctx.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	case req.DeadlineMS < 0:
		// The deadline expired before the request arrived: an already-past
		// Deadline makes the engine abort (or degrade) deterministically.
		ctx.Deadline = time.Now().Add(-time.Millisecond)
	}
	res := sv.QueryBatchCtx(ctx, qs, req.K, 0)
	n.requests.Inc()
	n.queries.Add(int64(len(qs)))
	return ShardResponse{Results: Render(res)}, nil
}

// Handler returns the node's HTTP surface:
//
//	POST /cluster/query   ShardRequest -> ShardResponse
//	GET  /cluster/info    NodeInfo
//	GET  /metrics         Prometheus text exposition
//	GET  /healthz         liveness
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req ShardRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := n.QueryShard(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/cluster/info", func(w http.ResponseWriter, r *http.Request) {
		info, _ := n.Info(r.Context())
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(info)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
