package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"topk"
	"topk/internal/cluster"
)

const (
	testN      = 2000
	testShards = 3
	testSeed   = 7
	testNQ     = 12
	testK      = 5
)

// testNodeIDs are the pinned cluster node names; under the pinned
// rendezvous hash (see internal/shard ring tests) "n1" owns shards
// {0,1,2} at R=2 and is the preferred owner of shards 1 — the tests
// below rely only on properties re-derived via Owners, not on the
// literals.
var testNodeIDs = []string{"n1", "n2", "n3"}

// buildSnapshot builds spec's sharded index, snapshots it, and returns
// the snapshot dir plus a single-process reference restored from the
// very same files the cluster nodes will load.
func buildSnapshot(t *testing.T, spec topk.ProblemSpec) (string, topk.Served) {
	t.Helper()
	dir := t.TempDir()
	ix, err := spec.BuildSharded(testN, testShards, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	ref, err := topk.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, ref
}

// buildReplicas restores each node's owned shards from dir, exactly as
// topk-node bootstrap does.
func buildReplicas(t *testing.T, spec topk.ProblemSpec, dir string, r int) []cluster.Replica {
	t.Helper()
	rc := cluster.RemoteConfig{Problem: spec.Name, Shards: testShards, Replication: r, Nodes: testNodeIDs}
	reps := make([]cluster.Replica, len(testNodeIDs))
	for i, id := range testNodeIDs {
		shards, err := cluster.LoadShards(dir, rc.OwnedShards(id))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = cluster.NewNode(id, spec.Name, shards)
	}
	return reps
}

func newCoordinator(t *testing.T, spec topk.ProblemSpec, reps []cluster.Replica, mut func(*cluster.Config)) *cluster.Coordinator {
	t.Helper()
	cfg := cluster.Config{Problem: spec.Name, Shards: testShards, Replication: 2, HedgeDelay: time.Second}
	if mut != nil {
		mut(&cfg)
	}
	co, err := cluster.New(cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func decodeAll(t *testing.T, ref topk.Served, queries []json.RawMessage) []any {
	t.Helper()
	qs := make([]any, len(queries))
	for i, raw := range queries {
		q, err := ref.DecodeQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterConformance: for every registered problem, a 3-node R=2
// cluster restored from a partitioned snapshot must answer the pinned
// wire workload byte-identically (items, stats, outcomes) to a
// single-process index restored from the same snapshot. This is the
// partition-exactness invariant carried across the process boundary.
func TestClusterConformance(t *testing.T) {
	for _, spec := range topk.RegisteredProblems() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			dir, ref := buildSnapshot(t, spec)
			co := newCoordinator(t, spec, buildReplicas(t, spec, dir, 2), nil)
			queries := spec.WireQueries(testNQ, testSeed+1)

			got, err := co.Query(context.Background(), queries, testK, cluster.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := cluster.Render(ref.QueryBatchCtx(topk.QueryCtx{}, decodeAll(t, ref, queries), testK, 0))
			if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
				t.Fatalf("cluster answer differs from single-process reference:\n got %s\nwant %s", g, w)
			}
		})
	}
}

// TestClusterDegradation: the lifecycle conformance rows for the
// cluster tier. With the deadline already expired on every replica the
// coordinator must serve the provably-correct top-1 fallback
// (byte-identical to the single-process degraded answer, whose head is
// the oracle maximum); without the fallback armed it must refuse typed;
// and the Degraded counter must account for every degraded query.
func TestClusterDegradation(t *testing.T) {
	spec, ok := topk.ProblemByName("interval")
	if !ok {
		t.Fatal("interval not registered")
	}
	dir, ref := buildSnapshot(t, spec)
	queries := spec.WireQueries(testNQ, testSeed+2)
	qs := decodeAll(t, ref, queries)
	degrade := true
	past := time.Now().Add(-time.Hour)

	rows := []struct {
		name    string
		opt     cluster.QueryOptions
		refCtx  topk.QueryCtx
		outcome string
	}{
		{
			name:    "all-replicas-past-deadline-degrade-to-max",
			opt:     cluster.QueryOptions{DeadlineAt: past, Degrade: &degrade},
			refCtx:  topk.QueryCtx{Deadline: past, DegradeToMax: true},
			outcome: "degraded",
		},
		{
			name:    "all-replicas-past-deadline-typed-refusal",
			opt:     cluster.QueryOptions{DeadlineAt: past},
			refCtx:  topk.QueryCtx{Deadline: past},
			outcome: "deadline_exceeded",
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			co := newCoordinator(t, spec, buildReplicas(t, spec, dir, 2), nil)
			got, err := co.Query(context.Background(), queries, testK, row.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := cluster.Render(ref.QueryBatchCtx(row.refCtx, qs, testK, 0))
			if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
				t.Fatalf("degraded cluster answer differs from reference:\n got %s\nwant %s", g, w)
			}
			for i, q := range got {
				if q.Outcome != row.outcome {
					t.Fatalf("q%d: outcome %q, want %q", i, q.Outcome, row.outcome)
				}
				switch row.outcome {
				case "degraded":
					// The degraded head must be the exact global maximum.
					oracle := ref.Oracle(qs[i])
					if len(oracle) == 0 {
						if len(q.Items) != 0 {
							t.Fatalf("q%d: degraded items %v for an empty oracle", i, q.Items)
						}
					} else if len(q.Items) != 1 || q.Items[0].Weight != oracle[0].Weight {
						t.Fatalf("q%d: degraded head %v, oracle max %v", i, q.Items, oracle[0].Weight)
					}
				case "deadline_exceeded":
					if len(q.Items) != 0 {
						t.Fatalf("q%d: typed refusal returned %d items", i, len(q.Items))
					}
					if q.Error == "" {
						t.Fatalf("q%d: typed refusal with no error string", i)
					}
				}
			}
			if row.outcome == "degraded" {
				if d := co.Metrics().Degraded.Value(); d != int64(len(queries)) {
					t.Fatalf("Degraded counter = %d, want %d", d, len(queries))
				}
			}
		})
	}
}

// stallReplica blocks every shard request until the coordinator cancels
// it — a SIGSTOPped or wedged node, as seen from the transport.
type stallReplica struct {
	cluster.Replica
}

func (s stallReplica) QueryShard(ctx context.Context, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	<-ctx.Done()
	return cluster.ShardResponse{}, ctx.Err()
}

// errReplica fails every shard request instantly — a dead port.
type errReplica struct {
	cluster.Replica
}

func (e errReplica) QueryShard(context.Context, cluster.ShardRequest) (cluster.ShardResponse, error) {
	return cluster.ShardResponse{}, errors.New("connection refused (test)")
}

// wrapReplica swaps node id's replica for the given wrapper.
func wrapReplica(reps []cluster.Replica, id string, wrap func(cluster.Replica) cluster.Replica) []cluster.Replica {
	out := make([]cluster.Replica, len(reps))
	for i, r := range reps {
		if r.ID() == id {
			out[i] = wrap(r)
		} else {
			out[i] = r
		}
	}
	return out
}

// TestClusterHedgedReads: with one replica wedged (never answers until
// cancelled) and a 1ms hedge delay, every query must still produce the
// exact single-process answer — replica interchangeability makes the
// hedge's answer the answer — and the hedge counters must show the
// rescues. This is the "one replica alive per shard → full answer"
// conformance row.
func TestClusterHedgedReads(t *testing.T) {
	spec, ok := topk.ProblemByName("interval")
	if !ok {
		t.Fatal("interval not registered")
	}
	dir, ref := buildSnapshot(t, spec)
	queries := spec.WireQueries(testNQ, testSeed+3)
	want := mustJSON(t, cluster.Render(ref.QueryBatchCtx(topk.QueryCtx{}, decodeAll(t, ref, queries), testK, 0)))

	reps := buildReplicas(t, spec, dir, 2)
	// Wedge the preferred owner of shard 0 so some dispatches stall.
	co := newCoordinator(t, spec, reps, func(c *cluster.Config) { c.HedgeDelay = time.Millisecond })
	stalled := co.Owners(0)[0]
	co = newCoordinator(t, spec, wrapReplica(reps, stalled, func(r cluster.Replica) cluster.Replica { return stallReplica{r} }),
		func(c *cluster.Config) { c.HedgeDelay = time.Millisecond })

	// The preferred replica rotates per shard request, so drive enough
	// rounds that the wedged node is preferred at least once.
	for round := 0; round < 16; round++ {
		got, err := co.Query(context.Background(), queries, testK, cluster.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if g := mustJSON(t, got); g != want {
			t.Fatalf("round %d: hedged answer differs from reference:\n got %s\nwant %s", round, g, want)
		}
		if co.Metrics().Hedged.Value() > 0 && co.Metrics().HedgeWins.Value() > 0 {
			return
		}
	}
	t.Fatalf("wedged node %s never forced a hedge in 16 rounds (hedged=%d wins=%d)",
		stalled, co.Metrics().Hedged.Value(), co.Metrics().HedgeWins.Value())
}

// TestClusterFailover: a replica that errors instantly must cost no
// hedge delay — the coordinator fails over to the next owner and still
// returns the exact answer, counting the error against the node.
func TestClusterFailover(t *testing.T) {
	spec, ok := topk.ProblemByName("range")
	if !ok {
		t.Fatal("range not registered")
	}
	dir, ref := buildSnapshot(t, spec)
	queries := spec.WireQueries(testNQ, testSeed+4)
	want := mustJSON(t, cluster.Render(ref.QueryBatchCtx(topk.QueryCtx{}, decodeAll(t, ref, queries), testK, 0)))

	reps := buildReplicas(t, spec, dir, 2)
	co := newCoordinator(t, spec, reps, nil)
	dead := co.Owners(0)[0]
	co = newCoordinator(t, spec, wrapReplica(reps, dead, func(r cluster.Replica) cluster.Replica { return errReplica{r} }), nil)

	// Whether a round prefers the dead owner depends on scheduling, so
	// drive rounds until an error is counted against it, checking every
	// round's answer on the way.
	errSeries := fmt.Sprintf("topk_replica_errors_total{node=%q}", dead)
	var metrics strings.Builder
	for round := 0; round < 32; round++ {
		got, err := co.Query(context.Background(), queries, testK, cluster.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if g := mustJSON(t, got); g != want {
			t.Fatalf("round %d: failover answer differs from reference:\n got %s\nwant %s", round, g, want)
		}
		metrics.Reset()
		co.Metrics().Registry().WritePrometheus(&metrics)
		if strings.Contains(metrics.String(), errSeries) {
			return
		}
	}
	t.Fatalf("no error counted against dead node %s in 32 rounds:\n%s", dead, metrics.String())
}

// TestClusterUnavailable: when every owner of a shard is dead the
// coordinator must refuse typed — OutcomeUnavailable with an error and
// empty items, never a silently partial merge — and count each query.
func TestClusterUnavailable(t *testing.T) {
	spec, ok := topk.ProblemByName("interval")
	if !ok {
		t.Fatal("interval not registered")
	}
	dir, _ := buildSnapshot(t, spec)
	reps := buildReplicas(t, spec, dir, 2)
	for i, r := range reps {
		reps[i] = errReplica{r}
	}
	co := newCoordinator(t, spec, reps, nil)
	queries := spec.WireQueries(4, testSeed+5)
	got, err := co.Query(context.Background(), queries, testK, cluster.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range got {
		if q.Outcome != topk.OutcomeUnavailable.String() {
			t.Fatalf("q%d: outcome %q, want unavailable", i, q.Outcome)
		}
		if len(q.Items) != 0 {
			t.Fatalf("q%d: unavailable query returned %d items", i, len(q.Items))
		}
		if !strings.Contains(q.Error, topk.ErrReplicaUnavailable.Error()) {
			t.Fatalf("q%d: error %q does not mention replica unavailability", i, q.Error)
		}
	}
	if u := co.Metrics().Unavailable.Value(); u != int64(len(queries)) {
		t.Fatalf("Unavailable counter = %d, want %d", u, len(queries))
	}
}

// TestClusterValidation: geometry and request validation errors.
func TestClusterValidation(t *testing.T) {
	spec, _ := topk.ProblemByName("interval")
	dir, _ := buildSnapshot(t, spec)
	reps := buildReplicas(t, spec, dir, 2)

	if _, err := cluster.New(cluster.Config{Shards: 0}, reps); err == nil {
		t.Fatal("New accepted 0 shards")
	}
	if _, err := cluster.New(cluster.Config{Shards: 3}, nil); err == nil {
		t.Fatal("New accepted an empty replica set")
	}
	if _, err := cluster.New(cluster.Config{Shards: 3}, []cluster.Replica{reps[0], reps[0]}); err == nil {
		t.Fatal("New accepted duplicate replica IDs")
	}
	co, err := cluster.New(cluster.Config{Shards: testShards, Replication: 99}, reps)
	if err != nil {
		t.Fatal(err)
	}
	if got := co.Config().Replication; got != len(reps) {
		t.Fatalf("replication clamped to %d, want %d", got, len(reps))
	}
	if _, err := co.Query(context.Background(), nil, testK, cluster.QueryOptions{}); err == nil {
		t.Fatal("Query accepted an empty batch")
	}
	if _, err := co.Query(context.Background(), spec.WireQueries(1, 1), 0, cluster.QueryOptions{}); err == nil {
		t.Fatal("Query accepted k=0")
	}
}

// TestNodeQueryShardValidation: nodes reject foreign shards and
// malformed requests rather than answering wrongly.
func TestNodeQueryShardValidation(t *testing.T) {
	spec, _ := topk.ProblemByName("interval")
	dir, _ := buildSnapshot(t, spec)
	shards, err := cluster.LoadShards(dir, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	n := cluster.NewNode("solo", spec.Name, shards)
	queries := spec.WireQueries(2, testSeed)

	if _, err := n.QueryShard(context.Background(), cluster.ShardRequest{Shard: 0, Queries: queries, K: 3}); err == nil {
		t.Fatal("node answered a shard it does not serve")
	}
	if _, err := n.QueryShard(context.Background(), cluster.ShardRequest{Shard: 1, K: 3}); err == nil {
		t.Fatal("node answered an empty batch")
	}
	if _, err := n.QueryShard(context.Background(), cluster.ShardRequest{Shard: 1, Queries: queries, K: 0}); err == nil {
		t.Fatal("node answered k=0")
	}
	if _, err := n.QueryShard(context.Background(), cluster.ShardRequest{Shard: 1, Queries: []json.RawMessage{json.RawMessage(`{"bad"`)}, K: 3}); err == nil {
		t.Fatal("node answered an undecodable query")
	}
	resp, err := n.QueryShard(context.Background(), cluster.ShardRequest{Shard: 1, Queries: queries, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(resp.Results), len(queries))
	}
	info, err := n.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Problem != spec.Name || len(info.Shards) != 1 || info.Shards[0] != 1 {
		t.Fatalf("info = %+v", info)
	}
}
