// Command topk-serve exposes a live top-k index over HTTP: a /query
// endpoint backed by the concurrent QueryBatch path, a Prometheus
// /metrics endpoint, expvar and pprof debug surfaces, and a slow-query
// ring buffer at /debug/slow. It exists so the paper's I/O accounting
// can be watched from standard observability tooling while a workload
// runs.
//
// Every problem in the library's registry can be served; there is no
// per-problem code here. GET /problems lists what is available.
//
// With -snapshot-dir the server warm-starts: if the directory holds a
// snapshot it is restored at O(size/B) sequential read I/Os instead of
// rebuilding the index, and the boot log reports the restore cost. The
// directory is (re)written on boot when empty, on demand via
// POST /snapshot, and periodically with -checkpoint-every. Checkpoints
// are atomic — written to a temporary sibling and renamed in — so a
// crash mid-checkpoint leaves the previous snapshot restorable.
//
// The server enforces a request lifecycle: -io-budget caps the
// simulated I/Os any single query may charge (per shard when sharded;
// -1 auto-derives the cap from a boot-time calibration batch), -deadline
// bounds its wall-clock time, and -degrade-max falls back to the
// provably-correct top-1 prefix instead of failing when a limit trips.
// Per-request overrides ride the /query body (budget_ios, deadline_ms,
// degrade), and every per-query answer reports its outcome.
//
// Usage:
//
//	topk-serve                       # interval index, n=20000, :8080
//	topk-serve -problem dominance -n 5e4
//	topk-serve -slow-ios 200         # log queries costing >= 200 I/Os
//	topk-serve -io-budget -1 -degrade-max
//	topk-serve -snapshot-dir /var/lib/topk -checkpoint-every 5m
//
// Endpoints:
//
//	GET  /metrics      Prometheus text exposition
//	GET  /problems     registered problems, query/item shapes, update support
//	POST /query        {"queries":[...], "k":10} -> per-query answers + I/O stats
//	POST /ingest       NDJSON bulk update: one item (or {"delete": w}) per line
//	POST /snapshot     checkpoint the index into -snapshot-dir now
//	GET  /debug/slow   recent slow-query traces (plain text)
//	GET  /debug/trace  Chrome trace-event JSON for n sample queries
//	GET  /debug/vars   expvar JSON
//	GET  /debug/pprof  net/http/pprof profiles
//	GET  /healthz      liveness
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"topk"
	"topk/internal/cluster"
	"topk/internal/obs"
)

// server is the HTTP surface around one Served index from the problem
// registry.
type server struct {
	problem     string
	n           int
	shards      int
	parallelism int
	ix          topk.Served
	slow        *ringWriter
	started     time.Time

	// ixMu guards the index's exclusive-update contract: queries,
	// traces, and snapshots share the read side, /ingest takes the
	// write side. Uncontended RLock/RUnlock is nanoseconds against
	// queries that simulate whole I/O traces, so the read path's cost
	// is unchanged in any measurable way.
	ixMu sync.RWMutex

	// limits are the request-lifecycle defaults, overridable per /query
	// request.
	limits cluster.Limits

	// procReg holds the process-level runtime gauges (goroutines, heap,
	// GC); index metrics live in the index's own registry.
	procReg *obs.Registry

	// snapDir is where checkpoints land ("" disables persistence).
	// warmStart records whether this process restored from a snapshot,
	// and restoreReads what the restore cost in simulated read I/Os.
	snapDir      string
	warmStart    bool
	restoreReads int64
	snapMu       sync.Mutex // serializes checkpoints (timer vs POST /snapshot)
	checkpoints  expvar.Int
}

// ringWriter retains the last few slow-query entries for /debug/slow.
// It is handed to WithSlowQueryLog as the io.Writer.
type ringWriter struct {
	mu      sync.Mutex
	entries []string
	next    int
}

func newRingWriter(keep int) *ringWriter {
	return &ringWriter{entries: make([]string, 0, keep)}
}

func (r *ringWriter) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := string(p)
	if len(r.entries) < cap(r.entries) {
		r.entries = append(r.entries, e)
	} else {
		r.entries[r.next] = e
		r.next = (r.next + 1) % cap(r.entries)
	}
	return len(p), nil
}

func (r *ringWriter) dump(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < len(r.entries); i++ {
		io.WriteString(w, r.entries[(r.next+i)%len(r.entries)])
	}
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		problem     = flag.String("problem", "interval", "problem to serve: "+strings.Join(topk.ProblemNames(), " | "))
		n           = flag.Int("n", 20000, "number of indexed items")
		shards      = flag.Int("shards", 1, "partition the index across this many shards (parallel fan-out/merge)")
		seed        = flag.Uint64("seed", 42, "workload seed")
		slowIOs     = flag.Int64("slow-ios", 500, "slow-query I/O threshold (0 disables)")
		updates     = flag.Bool("updates", false, "dynamize the index through the overlay even when the reduction is not natively dynamic")
		maintenance = flag.String("maintenance", "logarithmic", "overlay maintenance policy: logarithmic | buffered (only meaningful with -updates)")
		parallelism = flag.Int("parallelism", 0, "default /query parallelism (0 = GOMAXPROCS)")
		snapDir     = flag.String("snapshot-dir", "", "snapshot directory: restore from it on boot if present, checkpoint into it (empty disables)")
		checkEvery  = flag.Duration("checkpoint-every", 0, "checkpoint into -snapshot-dir at this interval (0 disables)")
		slowKeep    = flag.Int("slow-keep", 64, "slow-query entries retained for /debug/slow")
		queryLog    = flag.String("query-log", "", "append one JSON wide event per query to this file (\"-\" = stderr, empty disables)")
		ioBudget    = flag.Int64("io-budget", 0, "per-query, per-shard I/O budget (0 = unlimited, -1 = auto-derive from a calibration batch)")
		deadline    = flag.Duration("deadline", 0, "per-batch wall-clock deadline (0 = none)")
		degradeMax  = flag.Bool("degrade-max", false, "on budget/deadline abort, fall back to the top-1 Max answer instead of failing the query")
	)
	flag.Parse()

	var qlogW io.Writer
	switch *queryLog {
	case "":
	case "-":
		qlogW = os.Stderr
	default:
		f, err := os.OpenFile(*queryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topk-serve: opening -query-log: %v\n", err)
			os.Exit(1)
		}
		qlogW = f
	}

	var extra []topk.Option
	if *updates {
		extra = append(extra, topk.WithUpdates())
	}
	switch *maintenance {
	case "logarithmic":
	case "buffered":
		extra = append(extra, topk.WithMaintenancePolicy(topk.PolicyBuffered))
	default:
		fmt.Fprintf(os.Stderr, "topk-serve: unknown -maintenance %q (want logarithmic or buffered)\n", *maintenance)
		os.Exit(1)
	}
	if *slowKeep < 1 {
		fmt.Fprintf(os.Stderr, "topk-serve: -slow-keep %d: want at least 1 retained entry\n", *slowKeep)
		os.Exit(1)
	}

	slow := newRingWriter(*slowKeep)
	srv, err := buildServer(*problem, *n, *shards, *seed, *slowIOs, *parallelism, *snapDir, *slowKeep, slow, qlogW, extra...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topk-serve: %v\n", err)
		os.Exit(1)
	}
	srv.limits = cluster.Limits{BudgetIOs: *ioBudget, Deadline: *deadline, Degrade: *degradeMax}
	if *ioBudget < 0 {
		srv.limits.BudgetIOs = srv.calibrateBudget(*seed)
		log.Printf("topk-serve: auto-derived I/O budget: %d I/Os per query per shard", srv.limits.BudgetIOs)
	}
	srv.procReg = obs.NewRegistry()
	obs.RegisterRuntimeMetrics(srv.procReg, buildVersion())

	expvar.NewString("topk_problem").Set(*problem)
	// The live item count follows /ingest, so it is read at scrape time.
	expvar.Publish("topk_items", expvar.Func(func() any {
		srv.ixMu.RLock()
		defer srv.ixMu.RUnlock()
		return srv.ix.Len()
	}))
	expvar.NewInt("topk_shards").Set(int64(srv.ix.Shards()))
	warm := expvar.NewInt("topk_warm_start")
	if srv.warmStart {
		warm.Set(1)
	}
	expvar.NewInt("topk_restore_read_ios").Set(srv.restoreReads)
	expvar.Publish("topk_checkpoints_total", &srv.checkpoints)
	expvar.NewInt("topk_io_budget").Set(srv.limits.BudgetIOs)
	expvar.NewInt("topk_deadline_ms").Set(srv.limits.Deadline.Milliseconds())

	if srv.snapDir != "" && !srv.warmStart {
		// Cold boot with persistence on: seed the directory so the next
		// boot is warm.
		if err := srv.checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "topk-serve: initial checkpoint: %v\n", err)
			os.Exit(1)
		}
	}
	if *checkEvery > 0 && srv.snapDir != "" {
		go func() {
			for range time.Tick(*checkEvery) {
				if err := srv.checkpoint(); err != nil {
					log.Printf("topk-serve: checkpoint: %v", err)
				}
			}
		}()
	}

	http.HandleFunc("/metrics", srv.handleMetrics)
	http.HandleFunc("/problems", handleProblems)
	http.Handle("/query", cluster.QueryHandler(srv.problem, srv.shards,
		cluster.ServedBackend(srv.ix, srv.limits, srv.parallelism, srv.ixMu.RLocker())))
	http.HandleFunc("/ingest", srv.handleIngest)
	http.HandleFunc("/snapshot", srv.handleSnapshot)
	if srv.snapDir != "" {
		// Snapshot shipping for cluster bootstrap: topk-node replicas can
		// seed directly from this server's snapshot directory.
		http.Handle("/snapshot/", cluster.SnapshotHandler(srv.snapDir))
	}
	http.HandleFunc("/debug/slow", srv.handleSlow)
	http.HandleFunc("/debug/trace", srv.handleTrace)
	http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// /debug/vars (expvar) and /debug/pprof are registered by their
	// packages' imports on the default mux.

	boot := "cold build"
	if srv.warmStart {
		boot = fmt.Sprintf("warm start, %d read I/Os", srv.restoreReads)
	}
	log.Printf("topk-serve: %s index over %d items in %d shard(s) on %s (%s, slow-ios=%d)",
		*problem, srv.ix.Len(), srv.ix.Shards(), *addr, boot, *slowIOs)
	log.Fatal(http.ListenAndServe(*addr, nil))
}

// buildServer constructs the selected problem's index from the registry
// with full observability and returns the HTTP adapter around it. With
// shards > 1 the index is partitioned and every query fans out across
// the shards (metric series then carry a shard label). When snapDir
// holds a snapshot of the same problem, the index is restored from it —
// a warm start at O(size/B) read I/Os — instead of built; the restore
// keeps the snapshot's reduction, shard count, and seed, so -n and
// -shards are ignored on that path.
func buildServer(problem string, n, shards int, seed uint64, slowIOs int64, parallelism int, snapDir string, slowKeep int, slow *ringWriter, qlogW io.Writer, extra ...topk.Option) (*server, error) {
	spec, ok := topk.ProblemByName(problem)
	if !ok {
		return nil, fmt.Errorf("unknown problem %q (want one of: %s)", problem, strings.Join(topk.ProblemNames(), ", "))
	}
	opts := []topk.Option{topk.WithSeed(seed), topk.WithTracing(), topk.WithMetrics()}
	opts = append(opts, extra...)
	if slowIOs > 0 {
		opts = append(opts, topk.WithSlowQueryLog(slow, slowIOs), topk.WithSlowLogKeep(slowKeep))
	}
	if qlogW != nil {
		opts = append(opts, topk.WithQueryLog(qlogW))
	}
	if snapDir != "" {
		if mf, err := topk.ReadManifest(snapDir); err == nil {
			if mf.Problem != problem {
				return nil, fmt.Errorf("snapshot %s holds a %q index, server was asked to serve %q", snapDir, mf.Problem, problem)
			}
			ix, err := spec.Restore(snapDir, opts...)
			if err != nil {
				return nil, fmt.Errorf("restoring %s: %w", snapDir, err)
			}
			return &server{
				problem: problem, n: ix.Len(), shards: ix.Shards(), parallelism: parallelism,
				ix: ix, slow: slow, started: time.Now(),
				snapDir: snapDir, warmStart: true, restoreReads: ix.Stats().Reads,
			}, nil
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("reading snapshot %s: %w", snapDir, err)
		}
	}
	var (
		ix  topk.Served
		err error
	)
	if shards > 1 {
		ix, err = spec.BuildSharded(n, shards, seed, opts...)
	} else {
		ix, err = spec.Build(n, seed, opts...)
	}
	if err != nil {
		return nil, err
	}
	return &server{
		problem: problem, n: n, shards: ix.Shards(), parallelism: parallelism,
		ix: ix, slow: slow, started: time.Now(), snapDir: snapDir,
	}, nil
}

// buildVersion reports the main module version when built from a tagged
// or stamped checkout, "dev" otherwise.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}

// calibrateBudget derives the -io-budget -1 cap from observed cost: it
// runs an unbudgeted calibration batch of generated queries, takes the
// p99 of the per-query I/O cost, and doubles it for headroom. Queries
// that cost more than twice the calibrated tail are the pathological
// outliers the budget exists to cut off. The calibration traffic counts
// toward the index's query metrics (it is real load, served at boot).
func (s *server) calibrateBudget(seed uint64) int64 {
	const calQueries, calK = 256, 10
	qs := s.ix.GenQueries(calQueries, seed+1)
	res := s.ix.QueryBatch(qs, calK, 0)
	ios := make([]int64, 0, len(res))
	for _, r := range res {
		ios = append(ios, r.Stats.IOs())
	}
	sort.Slice(ios, func(i, j int) bool { return ios[i] < ios[j] })
	p99 := ios[(len(ios)*99+99)/100-1]
	budget := 2 * p99
	if budget < 16 {
		budget = 16
	}
	return budget
}

// checkpoint snapshots the index into s.snapDir atomically: the snapshot
// is written to a temporary sibling directory and renamed into place, so
// a crash mid-write leaves the previous checkpoint intact. Safe to call
// concurrently with queries (snapshotting only reads index state), but
// checkpoints themselves are serialized.
func (s *server) checkpoint() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.ixMu.RLock()
	defer s.ixMu.RUnlock()
	tmp := s.snapDir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := s.ix.Snapshot(tmp); err != nil {
		return err
	}
	old := s.snapDir + ".old"
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if _, err := os.Stat(s.snapDir); err == nil {
		if err := os.Rename(s.snapDir, old); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, s.snapDir); err != nil {
		return err
	}
	os.RemoveAll(old)
	s.checkpoints.Add(1)
	return nil
}

// handleSnapshot checkpoints on demand: POST /snapshot.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.snapDir == "" {
		http.Error(w, "server started without -snapshot-dir", http.StatusConflict)
		return
	}
	if err := s.checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"dir":         s.snapDir,
		"checkpoints": s.checkpoints.Value(),
	})
}

// handleProblems lists the registry: every problem any topk-serve binary
// can host, its JSON query shape, and its update support.
func handleProblems(w http.ResponseWriter, _ *http.Request) {
	type problemInfo struct {
		Name          string   `json:"name"`
		Dim           int      `json:"dim,omitempty"`
		QueryShape    string   `json:"query_shape"`
		ItemShape     string   `json:"item_shape"`
		Updates       string   `json:"updates"`
		NativeDynamic bool     `json:"native_dynamic"`
		Reductions    []string `json:"reductions"`
	}
	var reductions []string
	for _, r := range topk.AllReductions() {
		reductions = append(reductions, r.String())
	}
	var out []problemInfo
	for _, spec := range topk.RegisteredProblems() {
		out = append(out, problemInfo{
			Name:          spec.Name,
			Dim:           spec.Dim,
			QueryShape:    spec.QueryShape,
			ItemShape:     spec.ItemShape,
			Updates:       spec.Updatable(),
			NativeDynamic: spec.NativeDynamic,
			Reductions:    reductions,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"problems": out})
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.ix.WriteMetrics(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Persistence counters live at the server layer, not in the index's
	// metrics registry, so they are appended to the exposition here.
	warm := 0
	if s.warmStart {
		warm = 1
	}
	fmt.Fprintf(w, "# HELP topk_warm_start Whether this process restored its index from a snapshot (1) or built it cold (0).\n")
	fmt.Fprintf(w, "# TYPE topk_warm_start gauge\ntopk_warm_start %d\n", warm)
	fmt.Fprintf(w, "# HELP topk_restore_read_ios Simulated sequential read I/Os charged for the boot-time restore.\n")
	fmt.Fprintf(w, "# TYPE topk_restore_read_ios gauge\ntopk_restore_read_ios %d\n", s.restoreReads)
	fmt.Fprintf(w, "# HELP topk_checkpoints_total Snapshot checkpoints written by this process.\n")
	fmt.Fprintf(w, "# TYPE topk_checkpoints_total counter\ntopk_checkpoints_total %d\n", s.checkpoints.Value())
	if s.procReg != nil {
		s.procReg.WritePrometheus(w)
	}
}

// handleTrace runs n freshly generated sample queries and streams their
// span trees as Chrome trace-event JSON (open in chrome://tracing or
// Perfetto). The timeline is virtual: 1 simulated I/O renders as 1µs,
// so slice widths compare I/O cost. GET /debug/trace?n=8&k=10&seed=1
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	intParam := func(name string, def, max int) int {
		v := r.URL.Query().Get(name)
		if v == "" {
			return def
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > max {
			return def
		}
		return n
	}
	n := intParam("n", 8, 64)
	k := intParam("k", 10, 1000)
	seed := uint64(intParam("seed", 1, 1<<30))
	s.ixMu.RLock()
	qs := s.ix.GenQueries(n, seed)
	res := s.ix.QueryBatchCtx(cluster.QueryOptions{}.QueryCtx(s.limits), qs, k, 0)
	s.ixMu.RUnlock()
	traces := make([]topk.NamedTrace, len(res))
	for i, br := range res {
		traces[i] = topk.NamedTrace{
			Name:   fmt.Sprintf("%s q%d (%d IOs, %s)", s.problem, i, br.Stats.IOs(), br.Outcome),
			Events: br.Trace,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := topk.WriteChromeTrace(w, traces); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleIngest is the bulk-update endpoint: POST /ingest with an NDJSON
// body, one operation per line. A line holding the problem's item shape
// (GET /problems reports it) inserts that item; a line of the form
// {"delete": w} removes the item with weight w. Consecutive lines of
// the same kind coalesce into one InsertBatch or DeleteBatch, so a
// bulk load pays the overlay's sorted-merge flush cost once per run
// instead of a per-item tail pass — that is the whole point of the
// endpoint over many single inserts.
//
// The body is fully decoded before anything is applied, so malformed
// lines reject the request with no mutation. Runs then apply in stream
// order; a run rejected by validation (duplicate weight, bad geometry,
// static index) stops the stream there and the response reports what
// was applied before it.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	type run struct {
		items   []any
		deletes []float64
	}
	var (
		runs    []run
		lineNo  int
		decoded int
	)
	sc := bufio.NewScanner(io.LimitReader(r.Body, 256<<20))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var del struct {
			Delete *float64 `json:"delete"`
		}
		if err := json.Unmarshal([]byte(line), &del); err != nil {
			http.Error(w, fmt.Sprintf("line %d: %v", lineNo, err), http.StatusBadRequest)
			return
		}
		if del.Delete != nil {
			if len(runs) == 0 || len(runs[len(runs)-1].deletes) == 0 {
				runs = append(runs, run{})
			}
			runs[len(runs)-1].deletes = append(runs[len(runs)-1].deletes, *del.Delete)
		} else {
			it, err := s.ix.DecodeItem(json.RawMessage(line))
			if err != nil {
				http.Error(w, fmt.Sprintf("line %d: %v", lineNo, err), http.StatusBadRequest)
				return
			}
			if len(runs) == 0 || len(runs[len(runs)-1].items) == 0 {
				runs = append(runs, run{})
			}
			runs[len(runs)-1].items = append(runs[len(runs)-1].items, it)
		}
		decoded++
	}
	if err := sc.Err(); err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if decoded == 0 {
		http.Error(w, "empty ingest body (want NDJSON, one item or delete per line)", http.StatusBadRequest)
		return
	}

	start := time.Now()
	inserted, deleted := 0, 0
	var applyErr error
	s.ixMu.Lock()
	for _, ru := range runs {
		if len(ru.items) > 0 {
			if applyErr = s.ix.InsertBatch(ru.items); applyErr != nil {
				break
			}
			inserted += len(ru.items)
		} else {
			var n int
			if n, applyErr = s.ix.DeleteBatch(ru.deletes); applyErr != nil {
				break
			}
			deleted += n
		}
	}
	total := s.ix.Len()
	s.ixMu.Unlock()

	resp := map[string]any{
		"inserted": inserted,
		"deleted":  deleted,
		"items":    total,
		"elapsed":  time.Since(start).String(),
	}
	if applyErr != nil {
		resp["error"] = applyErr.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	s.slow.dump(&b)
	if b.Len() == 0 {
		fmt.Fprintln(w, "no slow queries recorded")
		return
	}
	io.WriteString(w, b.String())
}
