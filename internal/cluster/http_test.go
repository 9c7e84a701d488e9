package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topk"
	"topk/internal/cluster"
)

// swapHandler lets a node's HTTP server exist (so its URL — and hence
// its cluster ID — is known to the coordinator) before the node behind
// it has bootstrapped, exactly like a booting process that is listening
// but not yet serving.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "bootstrapping", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// TestClusterHTTPEndToEnd drives the full multi-process topology over
// real HTTP: a coordinator server owning the snapshot, three node
// servers that bootstrap themselves through the coordinator's
// /cluster/config and /snapshot endpoints (the topk-node flow), /readyz
// flipping once coverage is complete, and /query answering
// byte-identically to the single-process reference.
func TestClusterHTTPEndToEnd(t *testing.T) {
	spec, ok := topk.ProblemByName("interval")
	if !ok {
		t.Fatal("interval not registered")
	}
	dir, ref := buildSnapshot(t, spec)

	// Node servers first. Cluster IDs are the pinned logical names (the
	// topk-node -id flag), decoupled from the random httptest ports so
	// every node deterministically owns at least one shard.
	swaps := make([]*swapHandler, 3)
	ids := make([]string, 3)
	urls := make([]string, 3)
	reps := make([]cluster.Replica, 3)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		defer ts.Close()
		ids[i] = testNodeIDs[i]
		urls[i] = ts.URL
		reps[i] = cluster.NewHTTPReplica(ids[i], ts.URL, nil)
	}
	co, err := cluster.New(cluster.Config{
		Problem: spec.Name, Shards: testShards, Replication: 2, HedgeDelay: 50 * time.Millisecond,
	}, reps)
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(cluster.NewServer(co, dir, ids).Handler())
	defer coord.Close()

	// Before any node bootstraps, the cluster must refuse readiness.
	resp, err := http.Get(coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before bootstrap: %d, want 503", resp.StatusCode)
	}

	// Bootstrap each node exactly as topk-node does.
	ctx := context.Background()
	for i, id := range ids {
		rcfg, err := cluster.FetchConfig(ctx, nil, coord.URL)
		if err != nil {
			t.Fatal(err)
		}
		if rcfg.Problem != spec.Name || rcfg.Shards != testShards || rcfg.Replication != 2 {
			t.Fatalf("remote config = %+v", rcfg)
		}
		owned := rcfg.OwnedShards(id)
		if len(owned) == 0 {
			t.Fatalf("node %s owns no shards", id)
		}
		nodeDir := t.TempDir()
		mf, err := cluster.FetchShards(ctx, nil, coord.URL, nodeDir, owned)
		if err != nil {
			t.Fatal(err)
		}
		// The fetch must be partial: only owned shard files land on disk.
		ownedSet := map[int]bool{}
		for _, s := range owned {
			ownedSet[s] = true
		}
		for _, f := range mf.Files {
			_, statErr := os.Stat(filepath.Join(nodeDir, f.Name))
			if ownedSet[f.Shard] && statErr != nil {
				t.Fatalf("node %s: owned shard file %s missing: %v", id, f.Name, statErr)
			}
			if !ownedSet[f.Shard] && statErr == nil {
				t.Fatalf("node %s: fetched shard %d it does not own", id, f.Shard)
			}
		}
		shards, err := cluster.LoadShards(nodeDir, owned)
		if err != nil {
			t.Fatal(err)
		}
		swaps[i].set(cluster.NewNode(id, spec.Name, shards).Handler())
	}

	for i := 0; ; i++ {
		resp, err := http.Get(coord.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if i > 50 {
			t.Fatal("/readyz never turned ready after bootstrap")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The /query surface must match topk-serve's, byte-identically.
	queries := spec.WireQueries(testNQ, testSeed+6)
	want := mustJSON(t, cluster.Render(ref.QueryBatchCtx(topk.QueryCtx{}, decodeAll(t, ref, queries), testK, 0)))
	body, _ := json.Marshal(map[string]any{"queries": queries, "k": testK})
	qresp, err := http.Post(coord.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("/query: %d", qresp.StatusCode)
	}
	var envelope struct {
		Problem string                `json:"problem"`
		Shards  int                   `json:"shards"`
		K       int                   `json:"k"`
		Elapsed string                `json:"elapsed"`
		Results []cluster.ShardResult `json:"results"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Problem != spec.Name || envelope.Shards != testShards || envelope.K != testK || envelope.Elapsed == "" {
		t.Fatalf("envelope = %+v", envelope)
	}
	if got := mustJSON(t, envelope.Results); got != want {
		t.Fatalf("HTTP cluster answer differs from reference:\n got %s\nwant %s", got, want)
	}

	// Request validation mirrors topk-serve.
	for _, bad := range []string{`{"queries":[],"k":5}`, `{"queries":[1],"k":0}`, `{broken`} {
		resp, err := http.Post(coord.URL+"/query", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err = http.Get(coord.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d, want 405", resp.StatusCode)
	}

	// Observability surfaces.
	for _, probe := range []struct{ path, want string }{
		{"/healthz", "ok"},
		{"/metrics", "topk_hedged_requests_total"},
		{"/metrics", "topk_cluster_replication 2"},
	} {
		resp, err := http.Get(coord.URL + probe.path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if !strings.Contains(buf.String(), probe.want) {
			t.Fatalf("%s missing %q:\n%s", probe.path, probe.want, buf.String())
		}
	}

	// Node-level surfaces through one of the node servers.
	nresp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var nbuf bytes.Buffer
	nbuf.ReadFrom(nresp.Body)
	nresp.Body.Close()
	if !strings.Contains(nbuf.String(), "topk_node_shard_requests_total") {
		t.Fatalf("node /metrics missing shard request counter:\n%s", nbuf.String())
	}
}

// TestSnapshotHandlerSafety: the shipping handler serves exactly the
// manifest-listed files by base name and nothing else.
func TestSnapshotHandlerSafety(t *testing.T) {
	spec, _ := topk.ProblemByName("interval")
	dir, _ := buildSnapshot(t, spec)
	mf, err := topk.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := cluster.SnapshotHandler(dir)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "http://x"+path, nil)
		req.URL.Path = path // preserve raw path; no client-side cleaning
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := get("/snapshot/manifest"); rec.Code != http.StatusOK {
		t.Fatalf("/snapshot/manifest: %d", rec.Code)
	}
	if rec := get("/snapshot/file/" + mf.Files[0].Name); rec.Code != http.StatusOK {
		t.Fatalf("listed file: %d", rec.Code)
	} else if int64(rec.Body.Len()) != mf.Files[0].Bytes {
		t.Fatalf("listed file: %d bytes, manifest says %d", rec.Body.Len(), mf.Files[0].Bytes)
	}
	if rec := get("/snapshot/file/not-in-manifest.snap"); rec.Code == http.StatusOK {
		t.Fatal("served a file the manifest does not list")
	}
	if rec := get("/snapshot/file/../" + topk.ManifestName); rec.Code == http.StatusOK {
		t.Fatal("served a path outside the file namespace")
	}
	if rec := get("/snapshot/file/"); rec.Code == http.StatusOK {
		t.Fatal("served an empty file name")
	}
}

// TestFetchConfigErrors: bootstrap surfaces transport and sanity errors.
func TestFetchConfigErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(cluster.RemoteConfig{Problem: "x", Shards: 0})
	}))
	defer ts.Close()
	if _, err := cluster.FetchConfig(context.Background(), nil, ts.URL); err == nil {
		t.Fatal("accepted a config with 0 shards")
	}
	if _, err := cluster.FetchConfig(context.Background(), nil, "http://127.0.0.1:1"); err == nil {
		t.Fatal("no error for an unreachable coordinator")
	}
}

// TestFetchShardsRejectsBadManifest: a node writes shard files where a
// remote coordinator's manifest says, so a manifest naming a path
// outside the node's directory, or one shard twice, is refused before
// any shard file is fetched or written.
func TestFetchShardsRejectsBadManifest(t *testing.T) {
	file := func(name string, shard int) topk.ManifestFile {
		return topk.ManifestFile{Name: name, Shard: shard, Bytes: 3}
	}
	for _, c := range []struct {
		name  string
		files []topk.ManifestFile
	}{
		{"name climbs out", []topk.ManifestFile{file("../escape.snap", 0), file("shard-001.snap", 1)}},
		{"shard listed twice", []topk.ManifestFile{file("shard-000.snap", 0), file("shard-001.snap", 0)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mf := topk.Manifest{FormatVersion: 1, Problem: "interval", Reduction: "Expected",
				Partitioned: true, Shards: len(c.files), Files: c.files}
			var fetched atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/snapshot/manifest" {
					json.NewEncoder(w).Encode(mf)
					return
				}
				fetched.Add(1)
				w.Write([]byte("abc"))
			}))
			defer ts.Close()
			root := t.TempDir()
			dir := filepath.Join(root, "node")
			if _, err := cluster.FetchShards(context.Background(), nil, ts.URL, dir, []int{0, 1}); err == nil {
				t.Fatal("FetchShards accepted the manifest")
			}
			if n := fetched.Load(); n != 0 {
				t.Fatalf("fetched %d shard files from a rejected manifest", n)
			}
			if _, err := os.Stat(filepath.Join(root, "escape.snap")); err == nil {
				t.Fatal("FetchShards wrote a file outside its directory")
			}
		})
	}
}
