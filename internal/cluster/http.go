package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"topk"
)

// Server is the coordinator's HTTP surface. Its POST /query is
// topk-serve's own handler (QueryHandler) over the coordinator, so
// clients and topk-loadgen work against either unchanged.
type Server struct {
	co      *Coordinator
	snapDir string
	nodes   []string
}

// NewServer wraps a coordinator. snapDir, when non-empty, is the
// partitioned snapshot directory the coordinator also serves for
// replica bootstrap (GET /snapshot/manifest, /snapshot/file/{name}).
// nodes is the full cluster node ID list handed out via
// GET /cluster/config — the list ownership is computed over.
func NewServer(co *Coordinator, snapDir string, nodes []string) *Server {
	return &Server{co: co, snapDir: snapDir, nodes: nodes}
}

// Handler returns the coordinator's HTTP mux:
//
//	POST /query             topk-serve-compatible query batches
//	GET  /cluster/config    cluster geometry for node bootstrap
//	GET  /snapshot/...      snapshot shipping (when configured)
//	GET  /metrics           Prometheus text exposition
//	GET  /readyz            200 once every shard has a live owner
//	GET  /healthz           liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	cfg := s.co.Config()
	mux.Handle("/query", QueryHandler(cfg.Problem, cfg.Shards, func(ctx context.Context, req QueryRequest) ([]ShardResult, error) {
		return s.co.Query(ctx, req.Queries, req.K, req.QueryOptions)
	}))
	mux.HandleFunc("/cluster/config", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(RemoteConfig{
			Problem: cfg.Problem, Shards: cfg.Shards,
			Replication: cfg.Replication, Nodes: s.nodes,
		})
	})
	if s.snapDir != "" {
		mux.Handle("/snapshot/", SnapshotHandler(s.snapDir))
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.co.Metrics().Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.co.Ready(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// SnapshotHandler serves a partitioned snapshot directory for replica
// bootstrap:
//
//	GET /snapshot/manifest      the MANIFEST.json
//	GET /snapshot/file/{name}   one manifest-listed shard file
//
// Only files the manifest lists are served, and only by base name — the
// handler never reaches outside dir. topk-serve mounts this next to its
// own endpoints so a running single-process server can seed a cluster.
func SnapshotHandler(dir string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot/manifest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		b, err := os.ReadFile(filepath.Join(dir, topk.ManifestName))
		if err != nil {
			http.Error(w, "no snapshot manifest: "+err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/snapshot/file/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/snapshot/file/")
		if name == "" || name != filepath.Base(name) {
			http.Error(w, "bad file name", http.StatusBadRequest)
			return
		}
		mf, err := topk.ReadManifest(dir)
		if err != nil {
			http.Error(w, "no snapshot manifest: "+err.Error(), http.StatusNotFound)
			return
		}
		listed := false
		for _, f := range mf.Files {
			if f.Name == name {
				listed = true
				break
			}
		}
		if !listed {
			http.Error(w, fmt.Sprintf("file %q not in manifest", name), http.StatusNotFound)
			return
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	})
	return mux
}
