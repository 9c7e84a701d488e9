package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"topk"
)

// serve-interval: topk-serve warm-started from a two-shard Expected
// interval snapshot, driven in a closed loop over two keep-alive
// connections, one query per POST /query.
const (
	serveK     = 10
	serveConns = 2
)

// serveOpts are the options topk-serve builds every index with (its
// default flags: tracing, metrics and a slow-query log at 500 I/Os).
func serveOpts() []topk.Option {
	return []topk.Option{topk.WithTracing(), topk.WithMetrics(),
		topk.WithSlowQueryLog(io.Discard, 500), topk.WithSlowLogKeep(64)}
}

func runServe(cfg config, work string) (*result, error) {
	r := newResult()
	sz := cfg.size
	spec, _ := topk.ProblemByName("interval")
	snapDir := filepath.Join(work, "snap")
	save := exec.Command(filepath.Join(cfg.bins, "topk-snap"), "save", "-dir", snapDir,
		"-problem", "interval", "-n", strconv.Itoa(sz.n), "-shards", "2",
		"-reduction", "expected", "-seed", strconv.FormatUint(indexSeed, 10))
	if out, err := save.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("topk-snap save: %v: %s", err, out)
	}

	// Set-up: boot the server several times, each from exec to the first
	// 200 on /healthz; the last boot serves the load.
	var boots []float64
	var srv *serverProc
	for i := 0; i < sz.setups; i++ {
		p, d, err := startServer(cfg.bins, snapDir, filepath.Join(work, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			return nil, err
		}
		boots = append(boots, d.Seconds())
		if i < sz.setups-1 {
			p.stop()
		} else {
			srv = p
		}
	}
	r.setE2E("setup_s", median(boots))
	r.note("setup: %d boots, %v s", len(boots), boots)

	warm := requestBodies(spec.WireQueries(sz.warm, cfg.seed+1))
	raws := spec.WireQueries(sz.ops, cfg.seed)
	bodies := requestBodies(raws)
	runLoad(srv.base, warm)
	if err := srv.forceGC(); err != nil {
		return nil, err
	}
	v0, err := srv.vars()
	if err != nil {
		return nil, err
	}
	// first and second cover every request once each: without tracing a
	// forward and a reverse pass, combined by bestOf; with tracing the
	// untraced and traced halves in the order U T T U, so a steady drift
	// in machine speed cancels from the tracing overhead.
	var first, second loadResult
	if cfg.trace {
		h := len(bodies) / 2
		u1 := runLoad(srv.base, bodies[:h])
		t1 := runLoad(srv.base, bodies[:h])
		second = t1.then(runLoad(srv.base, bodies[h:]))
		first = u1.then(runLoad(srv.base, bodies[h:]))
	} else {
		first = runLoad(srv.base, bodies)
		second = runLoad(srv.base, reversed(bodies)).reversed()
	}
	sent := 2 * len(bodies)
	v1, err := srv.vars()
	if err != nil {
		return nil, err
	}
	if err := srv.forceGC(); err != nil {
		return nil, err
	}
	v2, err := srv.vars()
	if err != nil {
		return nil, err
	}
	r.attempted = sent
	if cfg.trace {
		latencyMetrics(r, first.lat, float64(len(bodies))/first.wall.Seconds())
	} else {
		lat, qps := bestOf(first.lat, second.lat, first.wall, second.wall)
		latencyMetrics(r, lat, qps)
	}
	r.setE2E("alloc_kb_per_query", float64(v1.Mem.TotalAlloc-v0.Mem.TotalAlloc)/float64(sent)/1024)
	r.setE2E("live_heap_mb", float64(v2.Mem.HeapAlloc)/(1<<20))
	// The server's only write is the snapshot restore at boot.
	r.setE2E("updates_per_s", float64(sz.n)/median(boots))
	r.setE2E("ios_per_update", float64(v2.RestoreReads)/float64(sz.n))
	if cfg.trace {
		runtimeLayerFromVars(r, v0, v1, sent, peakRSSMiB(srv.cmd.Process.Pid))
	}
	if err := srv.stop(); err != nil {
		r.note("topk-serve exit: %v", err)
	}

	answers, ios, digest, err := checkResponses(r, first)
	if err != nil {
		return nil, err
	}
	_, _, digest2, err := checkResponses(r, second)
	if err != nil {
		return nil, err
	}
	if digest2 != digest {
		r.fail(1, "the second pass answered differently")
	}
	r.setE2E("ios_per_query", float64(ios)/float64(len(bodies)))
	r.digest = digest
	restore, err := oracleCheck(r, spec, snapDir, raws, answers, sz.sample)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	if cfg.trace {
		addHTTPLayer(r, second)
		addOverhead(r, first.lat, second.lat, first.wall, second.wall)
		r.setLayer("snap.restore_s", restore.Seconds())
		r.setLayer("snap.mb", dirMiB(snapDir))
		if err := serveLadder(r, spec, snapDir, raws, sz.sample); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// oracleCheck restores the snapshot in process and compares a fixed
// sample of the HTTP answers with Oracle. It returns the restore time.
func oracleCheck(r *result, spec topk.ProblemSpec, dir string, raws []json.RawMessage, answers [][]topk.ServedItem, m int) (time.Duration, error) {
	t := time.Now()
	ix, err := spec.Restore(dir)
	if err != nil {
		return 0, fmt.Errorf("restoring %s in process: %w", dir, err)
	}
	restore := time.Since(t)
	bad := 0
	for _, i := range sampleIndexes(len(raws), m) {
		if answers[i] == nil {
			continue // already counted as failed
		}
		q, err := ix.DecodeQuery(raws[i])
		if err != nil {
			return 0, fmt.Errorf("decoding query %d: %w", i, err)
		}
		if !sameWeights(answers[i], topOf(ix.Oracle(q), serveK)) {
			bad++
		}
	}
	r.fail(bad, "HTTP answers differ from Oracle on an in-process Restore")
	return restore, nil
}

func requestBodies(raws []json.RawMessage) [][]byte {
	out := make([][]byte, len(raws))
	for i, q := range raws {
		out[i] = []byte(`{"queries":[` + string(q) + `],"k":` + strconv.Itoa(serveK) + `}`)
	}
	return out
}

// sampleIndexes spreads m indexes evenly over [0, n).
func sampleIndexes(n, m int) []int {
	if m > n {
		m = n
	}
	out := make([]int, m)
	for j := range out {
		out[j] = j * n / m
	}
	return out
}

// loadResult is one closed-loop pass: per-request send time, latency
// and raw response body, in request order.
type loadResult struct {
	start  []time.Time
	lat    durations
	bodies [][]byte
	errs   []error
	wall   time.Duration
}

// runLoad sends every body once, over serveConns keep-alive connections
// that each wait for a reply before sending again. Responses are kept
// raw and decoded after the loop, so the client spends as little CPU as
// possible while the server is being measured.
func runLoad(base string, bodies [][]byte) loadResult {
	n := len(bodies)
	lr := loadResult{start: make([]time.Time, n), lat: make(durations, n), bodies: make([][]byte, n), errs: make([]error, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				st := time.Now()
				body, err := post(client, base+"/query", bodies[i])
				lr.lat[i] = time.Since(st)
				lr.start[i] = st
				lr.bodies[i], lr.errs[i] = body, err
			}
		}()
	}
	wg.Wait()
	lr.wall = time.Since(t0)
	return lr
}

// reversed puts a pass over reversed(bodies) back in request order.
func (a loadResult) reversed() loadResult {
	return loadResult{reversed(a.start), reversed(a.lat), reversed(a.bodies), reversed(a.errs), a.wall}
}

// then appends a later pass.
func (a loadResult) then(b loadResult) loadResult {
	return loadResult{append(a.start, b.start...), append(a.lat, b.lat...), append(a.bodies, b.bodies...), append(a.errs, b.errs...), a.wall + b.wall}
}

func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// queryResponse is the part of the /query wire format the benchmark reads.
type queryResponse struct {
	Elapsed string `json:"elapsed"`
	Results []struct {
		Items []struct {
			Weight float64 `json:"weight"`
		} `json:"items"`
		IOs     int64  `json:"ios"`
		Outcome string `json:"outcome"`
		Error   string `json:"error"`
	} `json:"results"`
}

// checkResponses decodes every response of a pass and counts HTTP errors
// and non-OK outcomes as failed. It returns each request's answer (nil
// where the request failed), the summed I/Os and a digest of the answers.
func checkResponses(r *result, lr loadResult) ([][]topk.ServedItem, int64, uint64, error) {
	d := newDigest()
	answers := make([][]topk.ServedItem, len(lr.bodies))
	var ios int64
	httpErrs, notOK := 0, 0
	for i, b := range lr.bodies {
		if lr.errs[i] != nil {
			httpErrs++
			if httpErrs == 1 {
				r.note("first HTTP error: %v", lr.errs[i])
			}
			continue
		}
		var resp queryResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			return nil, 0, 0, fmt.Errorf("decoding response %d: %w", i, err)
		}
		if len(resp.Results) != 1 {
			return nil, 0, 0, fmt.Errorf("response %d holds %d results, want 1", i, len(resp.Results))
		}
		res := resp.Results[0]
		ios += res.IOs
		if res.Outcome != "ok" || res.Error != "" {
			notOK++
			continue
		}
		items := make([]topk.ServedItem, len(res.Items))
		for j, it := range res.Items {
			items[j].Weight = it.Weight
		}
		answers[i] = items
		d.items(items)
	}
	r.fail(httpErrs, "HTTP errors")
	r.fail(notOK, "non-OK outcomes")
	return answers, ios, d.sum(), nil
}

// addHTTPLayer records a client span per request with a child whose
// duration is the server-reported elapsed time, centred in the request,
// and reports the HTTP layer's self time and response size.
func addHTTPLayer(r *result, lr loadResult) {
	var sizes []float64
	for i, b := range lr.bodies {
		if lr.errs[i] != nil {
			continue
		}
		var resp queryResponse
		if json.Unmarshal(b, &resp) != nil {
			continue
		}
		el, err := time.ParseDuration(resp.Elapsed)
		if err != nil {
			continue
		}
		end := lr.start[i].Add(lr.lat[i])
		parent := r.spans.add("http.request", lr.start[i], end, -1, i)
		gap := (lr.lat[i] - el) / 2
		r.spans.add("server.query", lr.start[i].Add(gap), end.Add(-gap), parent, i)
		sizes = append(sizes, float64(len(b)))
	}
	self := r.spans.selfTimes("http.request")
	for i := range self {
		self[i] /= 1e3
	}
	r.setLayer("http.self_us", median(self))
	r.setLayer("http.resp_bytes", median(sizes))
}

// serveLadder times the in-process rungs under the server's path. Each
// shard is restored alone twice, without and with the serving options;
// the S=2 rung is a full Restore with the serving options. Per query the
// slower shard (at the serving-options rung) is the critical path, and
// its rungs supply the bb, core, em and obs layers.
func serveLadder(r *result, spec topk.ProblemSpec, dir string, raws []json.RawMessage, m int) error {
	idx := sampleIndexes(len(raws), m)
	var plain [2][]rung
	var opt [2][]time.Duration
	var allocPlain, allocOpt uint64
	for s := 0; s < 2; s++ {
		p, err := spec.RestoreShard(dir, s)
		if err != nil {
			return fmt.Errorf("restoring shard %d: %w", s, err)
		}
		o, err := spec.RestoreShard(dir, s, serveOpts()...)
		if err != nil {
			return fmt.Errorf("restoring shard %d with serving options: %w", s, err)
		}
		qs, err := decodeAll(p, raws, idx)
		if err != nil {
			return err
		}
		plain[s] = climb(p, qs, serveK)
		opt[s] = make([]time.Duration, len(qs))
		for i, q := range qs {
			opt[s][i] = timeMin(ladderReps, func() { o.QueryBatchCtx(topk.QueryCtx{}, []any{q}, serveK, 1) })
		}
		a0 := readProc().allocBytes
		for _, q := range qs {
			p.QueryBatchCtx(topk.QueryCtx{}, []any{q}, serveK, 1)
		}
		a1 := readProc().allocBytes
		for _, q := range qs {
			o.QueryBatchCtx(topk.QueryCtx{}, []any{q}, serveK, 1)
		}
		a2 := readProc().allocBytes
		allocPlain += a1 - a0
		allocOpt += a2 - a1
		runtime.GC()
	}
	full, err := spec.Restore(dir, serveOpts()...)
	if err != nil {
		return fmt.Errorf("restoring with serving options: %w", err)
	}
	qs, err := decodeAll(full, raws, idx)
	if err != nil {
		return err
	}
	var crit []rung
	var obsSelf, shardSelf, skew []float64
	var traced []topk.BatchResult[topk.ServedItem]
	for i, q := range qs {
		var res []topk.BatchResult[topk.ServedItem]
		s2 := timeMin(ladderReps, func() { res = full.QueryBatchCtx(topk.QueryCtx{}, []any{q}, serveK, 0) })
		traced = append(traced, res[0])
		c, o := 0, 1
		if opt[1][i] > opt[0][i] {
			c, o = 1, 0
		}
		if !plain[c][i].answered {
			continue
		}
		crit = append(crit, plain[c][i])
		obsSelf = append(obsSelf, us(opt[c][i]-plain[c][i].view))
		shardSelf = append(shardSelf, us(s2-opt[c][i]))
		skew = append(skew, float64(opt[c][i])/float64(opt[o][i]))
	}
	addRungLayers(r, crit)
	addCoreCounts(r, traced)
	r.setLayer("obs.self_us", median(obsSelf))
	r.setLayer("obs.alloc_kb", (float64(allocOpt)-float64(allocPlain))/float64(2*len(qs))/1024)
	r.setLayer("shard.self_us", median(shardSelf))
	r.setLayer("shard.skew", median(skew))
	return nil
}

func decodeAll(ix topk.Served, raws []json.RawMessage, idx []int) ([]any, error) {
	qs := make([]any, len(idx))
	for j, i := range idx {
		q, err := ix.DecodeQuery(raws[i])
		if err != nil {
			return nil, fmt.Errorf("decoding query %d: %w", i, err)
		}
		qs[j] = q
	}
	return qs, nil
}

func dirMiB(dir string) float64 {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return float64(total) / (1 << 20)
}

// serverVars is the part of topk-serve's /debug/vars the benchmark reads.
type serverVars struct {
	Mem struct {
		TotalAlloc    uint64
		HeapAlloc     uint64
		Mallocs       uint64
		NumGC         uint32
		GCCPUFraction float64
	} `json:"memstats"`
	RestoreReads int64 `json:"topk_restore_read_ios"`
}

// runtimeLayerFromVars is runtimeLayer for the server process, from two
// /debug/vars readings around ops requests. The server exposes only the
// cumulative GC CPU fraction since its start, so gc.cpu_share there
// includes the boot.
func runtimeLayerFromVars(r *result, before, after serverVars, ops int, peakMiB float64) {
	r.setLayer("gc.cycles_per_kq", float64(after.Mem.NumGC-before.Mem.NumGC)/(float64(ops)/1000))
	r.setLayer("gc.cpu_share", after.Mem.GCCPUFraction)
	r.setLayer("mallocs_per_query", float64(after.Mem.Mallocs-before.Mem.Mallocs)/float64(ops))
	r.setLayer("peak_rss_mb", peakMiB)
}

// serverProc is one running topk-serve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	done   chan error
	client *http.Client
	once   sync.Once
	err    error
}

var (
	serversMu sync.Mutex
	servers   []*serverProc
)

// stopAllServers stops every server still running.
func stopAllServers() {
	serversMu.Lock()
	ps := append([]*serverProc(nil), servers...)
	serversMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs topk-serve warm-starting from snapDir and returns once
// /healthz answers 200, with the time that took.
func startServer(bins, snapDir, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(bins, "topk-serve"), "-addr", addr, "-problem", "interval", "-snapshot-dir", snapDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{
		cmd: cmd, base: "http://" + addr, done: make(chan error, 1),
		client: &http.Client{Timeout: 60 * time.Second},
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting topk-serve: %w", err)
	}
	go func() { p.done <- cmd.Wait() }()
	serversMu.Lock()
	servers = append(servers, p)
	serversMu.Unlock()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			log, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("topk-serve exited during boot (%v): %s", err, log)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 120*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("topk-serve not healthy after %v", time.Since(t0))
		}
	}
}

// stop terminates the server and waits for it to exit.
func (p *serverProc) stop() error {
	p.once.Do(func() {
		p.client.CloseIdleConnections()
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case p.err = <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			p.err = <-p.done
		}
		serversMu.Lock()
		for i, s := range servers {
			if s == p {
				servers = append(servers[:i], servers[i+1:]...)
				break
			}
		}
		serversMu.Unlock()
	})
	// SIGTERM ends the server with a signal status; that is the normal exit.
	if ee, ok := p.err.(*exec.ExitError); ok && !ee.Exited() {
		return nil
	}
	return p.err
}

// forceGC makes the server run a full collection: the heap profile
// handler collects before it writes with gc=1.
func (p *serverProc) forceGC() error {
	resp, err := p.client.Get(p.base + "/debug/pprof/heap?gc=1")
	if err != nil {
		return fmt.Errorf("forcing a server GC: %w", err)
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (p *serverProc) vars() (serverVars, error) {
	var v serverVars
	resp, err := p.client.Get(p.base + "/debug/vars")
	if err != nil {
		return v, fmt.Errorf("reading /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return v, nil
}
