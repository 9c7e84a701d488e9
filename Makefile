# Development entry points. Everything is stdlib-only Go; no external
# dependencies are fetched by any target.

GO ?= go

.PHONY: all build test race fuzz fuzz-smoke cover bench bench-parallel bench-json bench-check perfbench-check experiments validate examples serve-smoke snap-smoke load-smoke load-curve ingest-smoke cluster-smoke fmt fmt-check vet clean ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Fail if any file is not gofmt-clean (CI gate; `make fmt` fixes).
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "FAIL: not gofmt-clean:"; echo "$$files"; exit 1; \
	fi; \
	echo "fmt-check: ok"

test:
	$(GO) test ./...

# The race pass over everything, then repeated runs of the tests that
# share one tracker between concurrent query views, so an interleaving
# the detector missed once gets nine more chances.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/em
	$(GO) test -race -count=10 -run 'TestConcurrent|TestTraceInvariant|TestRunBatchPanic|TestSnapshotConcurrent' .

# Fuzz pass over every fuzz target. FUZZTIME scales the session: the
# default is CI-sized, the nightly workflow cranks it to minutes
# (make fuzz FUZZTIME=5m).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzTreapOps -fuzztime $(FUZZTIME) ./internal/treap/
	$(GO) test -fuzz FuzzMapOps -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -fuzz FuzzPersistence -fuzztime $(FUZZTIME) ./internal/pstree/
	$(GO) test -fuzz FuzzTreeOps -fuzztime $(FUZZTIME) ./internal/interval/
	$(GO) test -fuzz FuzzOverlayPolicies -fuzztime $(FUZZTIME) ./internal/dynamic/
	$(GO) test -fuzz FuzzDynamicInterval -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzDynamicDominance -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzShardedInterval -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME) -run '^$$' .

# Brief fuzz pass over just the oracle-diff targets: cheap enough for
# every CI run, still long enough to shake out op-sequence bugs.
fuzz-smoke:
	$(GO) test -fuzz FuzzOverlayPolicies -fuzztime 5s ./internal/dynamic/
	$(GO) test -fuzz FuzzDynamicInterval -fuzztime 5s -run '^$$' .
	$(GO) test -fuzz FuzzDynamicDominance -fuzztime 5s -run '^$$' .
	$(GO) test -fuzz FuzzShardedInterval -fuzztime 5s -run '^$$' .
	$(GO) test -fuzz FuzzSnapshotRestore -fuzztime 5s -run '^$$' .

# Coverage floors on the packages whose correctness the test pyramid leans
# on: the dynamization overlay, the reduction framework, the snapshot
# codec, the EM cost tracker, the cluster serving tier, and the root
# package holding the problem-descriptor engine, registry, and
# persistence layer.
cover:
	@for pkg in ./internal/dynamic ./internal/core ./internal/snap ./internal/em ./internal/cluster .; do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		echo "$$pkg coverage: $$pct%"; \
		awk -v p="$$pct" 'BEGIN { exit !(p >= 70) }' || { echo "FAIL: $$pkg coverage $$pct% is below the 70% floor"; exit 1; }; \
	done

bench:
	$(GO) test -bench=. -benchmem .

# Parallel batch-query throughput: the BenchmarkParallel* sweep over
# worker counts (see also `-exp E24` of cmd/topk-bench).
bench-parallel:
	$(GO) test -bench 'BenchmarkParallel' -benchtime 20x .

# Regenerate the EXPERIMENTS.md tables (E1-E29, E32).
experiments:
	$(GO) run ./cmd/topk-bench -seed 42

# Regenerate the benchmark-regression baseline for this PR. Commit the
# result whenever a cost change is intentional; bench-check diffs
# against the newest checked-in baseline.
BENCH_BASELINE = BENCH_PR21.json
bench-json:
	$(GO) run ./cmd/topk-bench -io-json $(BENCH_BASELINE)

# The CI cost gate: emit a fresh snapshot and diff it against the newest
# checked-in BENCH_*.json. Deterministic I/O counts must not rise; wall
# times are report-only (see cmd/benchdiff).
bench-check:
	@base=$$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1); \
	[ -n "$$base" ] || { echo "FAIL: no BENCH_*.json baseline checked in; run make bench-json"; exit 1; }; \
	$(GO) run ./cmd/topk-bench -io-json /tmp/topk-bench-current.json; \
	echo "bench-check: diffing against $$base"; \
	$(GO) run ./cmd/benchdiff "$$base" /tmp/topk-bench-current.json

# Vet and self-test the benchmark module against this tree. perfbench/
# is its own module (it reaches topk through a replace directive), so the
# root's build, vet and test never compile it; without this target a
# break in the API surface it uses would surface only as a failed
# benchmark run. The self-test builds topk-serve and topk-snap into a
# temporary directory and runs each workload briefly.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# End-to-end smoke of the serving surface: start topk-serve, poll
# /healthz, answer a /query batch, and assert /metrics exposes populated
# histograms. Needs curl.
#
# Every smoke target cleans up with the same discipline: an accumulated
# pid list killed by a single-quoted trap on EXIT, INT, and TERM — so a
# mid-script curl failure, a ^C, or a runner-sent TERM never strands a
# server on its port (single quotes defer $$pids expansion to fire time;
# SIGKILL also collects processes a test left SIGSTOPped).
serve-smoke:
	$(GO) build -o /tmp/topk-serve ./cmd/topk-serve
	@pids=""; trap 'kill -9 $$pids 2>/dev/null' EXIT INT TERM; \
	/tmp/topk-serve -addr 127.0.0.1:18099 -n 5000 -slow-ios 1 & \
	pid=$$!; pids="$$pids $$pid"; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18099/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:18099/healthz | grep -q ok || { echo "FAIL: /healthz"; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:18099/query -d '{"queries":[10,50,90],"k":5}' | grep -q '"ios"' \
		|| { echo "FAIL: /query"; exit 1; }; \
	metrics=$$(curl -sf http://127.0.0.1:18099/metrics); \
	echo "$$metrics" | grep -q 'topk_query_ios_bucket{' || { echo "FAIL: no topk_query_ios_bucket in /metrics"; exit 1; }; \
	count=$$(echo "$$metrics" | sed -n 's/^topk_query_ios_count{index="interval"} //p'); \
	[ "$$count" = "3" ] || { echo "FAIL: topk_query_ios_count = $$count, want 3"; exit 1; }; \
	curl -sf http://127.0.0.1:18099/debug/slow | grep -q 'slow query' || { echo "FAIL: /debug/slow empty"; exit 1; }; \
	curl -sf http://127.0.0.1:18099/problems | grep -q '"halfspace"' || { echo "FAIL: /problems missing registry entries"; exit 1; }; \
	echo "serve-smoke: interval ok"
	@pids=""; trap 'kill -9 $$pids 2>/dev/null' EXIT INT TERM; \
	/tmp/topk-serve -addr 127.0.0.1:18100 -problem dominance -n 5000 -shards 4 -slow-ios 1 & \
	pid=$$!; pids="$$pids $$pid"; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18100/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf -X POST http://127.0.0.1:18100/query -d '{"queries":[[50,50,50],[90,90,90]],"k":5}' | grep -q '"shards":4' \
		|| { echo "FAIL: /query (sharded dominance)"; exit 1; }; \
	metrics=$$(curl -sf http://127.0.0.1:18100/metrics); \
	echo "$$metrics" | grep -q 'topk_shards{index="dominance"} 4' || { echo "FAIL: topk_shards gauge"; exit 1; }; \
	count=$$(echo "$$metrics" | grep -c '^topk_query_ios_count{index="dominance",shard="'); \
	[ "$$count" = "4" ] || { echo "FAIL: $$count per-shard topk_query_ios_count series, want 4"; exit 1; }; \
	echo "serve-smoke: ok"

# End-to-end smoke of the persistence surface: save a snapshot with
# topk-snap, verify it answer-diffs clean against a fresh build, reshard
# it and verify again, then boot topk-serve cold with -snapshot-dir (which
# seeds the directory), restart it warm, and assert the warm boot restored
# instead of rebuilding and answers a query identically.
snap-smoke:
	$(GO) build -o /tmp/topk-snap ./cmd/topk-snap
	$(GO) build -o /tmp/topk-serve ./cmd/topk-serve
	@rm -rf /tmp/topk-snap-smoke && mkdir -p /tmp/topk-snap-smoke
	/tmp/topk-snap save -dir /tmp/topk-snap-smoke/saved -problem dominance -n 4000 -shards 4 -reduction Expected
	/tmp/topk-snap inspect -dir /tmp/topk-snap-smoke/saved -sections >/dev/null
	/tmp/topk-snap verify -dir /tmp/topk-snap-smoke/saved
	/tmp/topk-snap convert -src /tmp/topk-snap-smoke/saved -dst /tmp/topk-snap-smoke/resharded -shards 2
	/tmp/topk-snap verify -dir /tmp/topk-snap-smoke/resharded
	@pids=""; trap 'kill -9 $$pids 2>/dev/null' EXIT INT TERM; \
	/tmp/topk-serve -addr 127.0.0.1:18101 -n 5000 -snapshot-dir /tmp/topk-snap-smoke/serve & \
	pid=$$!; pids="$$pids $$pid"; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18101/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:18101/metrics | grep -q '^topk_warm_start 0' || { echo "FAIL: first boot should be cold"; exit 1; }; \
	cold=$$(curl -sf -X POST http://127.0.0.1:18101/query -d '{"queries":[10,50,90],"k":5}' | sed 's/"elapsed":"[^"]*",//'); \
	curl -sf -X POST http://127.0.0.1:18101/snapshot | grep -q '"dir"' || { echo "FAIL: POST /snapshot"; exit 1; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	/tmp/topk-serve -addr 127.0.0.1:18101 -n 5000 -snapshot-dir /tmp/topk-snap-smoke/serve & \
	pid=$$!; pids="$$pids $$pid"; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18101/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:18101/metrics | grep -q '^topk_warm_start 1' || { echo "FAIL: second boot should warm-start"; exit 1; }; \
	warm=$$(curl -sf -X POST http://127.0.0.1:18101/query -d '{"queries":[10,50,90],"k":5}' | sed 's/"elapsed":"[^"]*",//'); \
	[ "$$cold" = "$$warm" ] || { echo "FAIL: warm-start answers differ from cold build"; echo "cold: $$cold"; echo "warm: $$warm"; exit 1; }; \
	echo "snap-smoke: ok"

# End-to-end smoke of the request-lifecycle surface: boot topk-serve
# with no budgets, drive a 2-second open-loop loadgen burst, and assert
# the artifact reports non-zero latency percentiles with every request
# answered ok — and that the unbudgeted server leaked zero budget aborts
# or deadline misses into /metrics.
load-smoke:
	$(GO) build -o /tmp/topk-serve ./cmd/topk-serve
	$(GO) build -o /tmp/topk-loadgen ./cmd/topk-loadgen
	@pids=""; trap 'kill -9 $$pids 2>/dev/null' EXIT INT TERM; \
	/tmp/topk-serve -addr 127.0.0.1:18103 -n 5000 & \
	pid=$$!; pids="$$pids $$pid"; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18103/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	/tmp/topk-loadgen -url http://127.0.0.1:18103 -problem interval \
		-qps 200 -duration 2s -warmup 500ms -out /tmp/topk-load-smoke.json \
		|| { echo "FAIL: loadgen burst"; exit 1; }; \
	p50=$$(sed -n 's/^ *"p50": \([0-9]*\),*/\1/p' /tmp/topk-load-smoke.json); \
	p999=$$(sed -n 's/^ *"p999": \([0-9]*\),*/\1/p' /tmp/topk-load-smoke.json); \
	[ -n "$$p50" ] && [ "$$p50" -gt 0 ] || { echo "FAIL: p50 = '$$p50', want > 0"; exit 1; }; \
	[ -n "$$p999" ] && [ "$$p999" -ge "$$p50" ] || { echo "FAIL: p999 = '$$p999' below p50 = $$p50"; exit 1; }; \
	grep -q '"errors": 0,' /tmp/topk-load-smoke.json || { echo "FAIL: loadgen saw request errors"; exit 1; }; \
	metrics=$$(curl -sf http://127.0.0.1:18103/metrics); \
	echo "$$metrics" | grep -q '^topk_budget_aborts_total{index="interval"} 0' \
		|| { echo "FAIL: unbudgeted server counted budget aborts"; exit 1; }; \
	echo "$$metrics" | grep -q '^topk_deadline_exceeded_total{index="interval"} 0' \
		|| { echo "FAIL: unbudgeted server counted deadline misses"; exit 1; }; \
	echo "$$metrics" | grep -q '^topk_build_info{' || { echo "FAIL: no topk_build_info gauge"; exit 1; }; \
	curl -sf "http://127.0.0.1:18103/debug/trace?n=2" | grep -q '"traceEvents"' \
		|| { echo "FAIL: /debug/trace"; exit 1; }; \
	echo "load-smoke: ok"

# Regenerate the E31 artifact: the latency-vs-QPS curve at shard counts
# {1, 2, 8} with I/O budgets off and on (per-shard budget + top-1
# degradation). The workload is compute-bound (closed loop, batched
# heavy queries) so the budget's early aborts dominate scheduling noise
# in the client-observed tail. The merge step asserts the lifecycle's
# tail contract — budget-on p999 must not exceed budget-off p999 at any
# shard count — and fails the target if enforcement ever makes the tail
# worse.
load-curve:
	$(GO) build -o /tmp/topk-serve ./cmd/topk-serve
	$(GO) build -o /tmp/topk-loadgen ./cmd/topk-loadgen
	@rm -f /tmp/topk-e31-*.json; \
	pids=""; trap 'kill -9 $$pids 2>/dev/null' EXIT INT TERM; \
	for shards in 1 2 8; do \
		/tmp/topk-serve -addr 127.0.0.1:18104 -n 100000 -shards $$shards & \
		pid=$$!; pids="$$pids $$pid"; \
		for i in $$(seq 1 100); do \
			curl -sf http://127.0.0.1:18104/healthz >/dev/null 2>&1 && break; sleep 0.25; \
		done; \
		/tmp/topk-loadgen -url http://127.0.0.1:18104 -problem interval \
			-qps 0 -concurrency 1 -batch 16 -k 100 -duration 3s -warmup 500ms \
			-label "shards=$$shards budget=off" -out /tmp/topk-e31-s$$shards-off.json || exit 1; \
		/tmp/topk-loadgen -url http://127.0.0.1:18104 -problem interval \
			-qps 0 -concurrency 1 -batch 16 -k 100 -duration 3s -warmup 500ms \
			-budget-ios 8 -degrade \
			-label "shards=$$shards budget=on" -out /tmp/topk-e31-s$$shards-on.json || exit 1; \
		kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	done; \
	/tmp/topk-loadgen -merge -out E31.json \
		/tmp/topk-e31-s1-off.json /tmp/topk-e31-s1-on.json \
		/tmp/topk-e31-s2-off.json /tmp/topk-e31-s2-on.json \
		/tmp/topk-e31-s8-off.json /tmp/topk-e31-s8-on.json \
		|| { echo "FAIL: E31 merge (budget-on tail exceeded budget-off)"; exit 1; }; \
	echo "load-curve: wrote E31.json"

# End-to-end smoke of the bulk-ingest surface: boot topk-serve with
# -updates under the buffered maintenance policy, bulk-load a 500-item
# NDJSON stream (plus one delete) through POST /ingest, checkpoint into
# the snapshot directory, SIGKILL the server, warm-start it over the
# same directory, and assert the restore kept every ingested item and
# answers the same query batch byte-identically. /debug/vars must report
# the live item count after the ingest, not the boot-time one.
ingest-smoke:
	$(GO) build -o /tmp/topk-serve ./cmd/topk-serve
	@rm -rf /tmp/topk-ingest-smoke && mkdir -p /tmp/topk-ingest-smoke
	@pids=""; trap 'kill -9 $$pids 2>/dev/null' EXIT INT TERM; \
	/tmp/topk-serve -addr 127.0.0.1:18105 -n 5000 -updates -maintenance buffered -snapshot-dir /tmp/topk-ingest-smoke/snap & \
	pid=$$!; pids="$$pids $$pid"; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18105/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	for i in $$(seq 1 500); do \
		echo "{\"lo\": $$i, \"hi\": $$((i+50)), \"weight\": $$((2000000000+i))}"; \
	done > /tmp/topk-ingest-smoke/body.ndjson; \
	echo '{"delete": 2000000001}' >> /tmp/topk-ingest-smoke/body.ndjson; \
	resp=$$(curl -sf -X POST --data-binary @/tmp/topk-ingest-smoke/body.ndjson http://127.0.0.1:18105/ingest); \
	echo "$$resp" | grep -q '"inserted":500' || { echo "FAIL: /ingest inserted: $$resp"; exit 1; }; \
	echo "$$resp" | grep -q '"deleted":1' || { echo "FAIL: /ingest deleted: $$resp"; exit 1; }; \
	echo "$$resp" | grep -q '"items":5499' || { echo "FAIL: /ingest items: $$resp"; exit 1; }; \
	curl -sf http://127.0.0.1:18105/debug/vars | grep -q '"topk_items": 5499' \
		|| { echo "FAIL: /debug/vars topk_items did not follow the ingest"; exit 1; }; \
	before=$$(curl -sf -X POST http://127.0.0.1:18105/query -d '{"queries":[10,50,90],"k":5}' | sed 's/"elapsed":"[^"]*",//'); \
	curl -sf -X POST http://127.0.0.1:18105/snapshot | grep -q '"dir"' || { echo "FAIL: POST /snapshot"; exit 1; }; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	/tmp/topk-serve -addr 127.0.0.1:18105 -n 5000 -updates -maintenance buffered -snapshot-dir /tmp/topk-ingest-smoke/snap & \
	pid=$$!; pids="$$pids $$pid"; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18105/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	metrics=$$(curl -sf http://127.0.0.1:18105/metrics); \
	echo "$$metrics" | grep -q '^topk_warm_start 1' || { echo "FAIL: restart should warm-start from the checkpoint"; exit 1; }; \
	echo "$$metrics" | grep -q '^topk_index_items{index="interval"} 5499' \
		|| { echo "FAIL: warm start did not restore the 5499 ingested items"; exit 1; }; \
	after=$$(curl -sf -X POST http://127.0.0.1:18105/query -d '{"queries":[10,50,90],"k":5}' | sed 's/"elapsed":"[^"]*",//'); \
	[ "$$before" = "$$after" ] || { echo "FAIL: warm-start answers differ after bulk ingest"; \
		echo "before: $$before"; echo "after:  $$after"; exit 1; }; \
	echo "ingest-smoke: ok"

# End-to-end smoke of the cluster serving tier: save a 3-shard snapshot,
# boot a coordinator (R=2, degradation armed) plus three topk-node
# replicas that bootstrap themselves by shipping shard files over HTTP,
# and a single-process topk-serve reference over the same snapshot. The
# coordinator's /query answers must be byte-identical to the reference
# (elapsed stripped) — first with all nodes healthy, then with one node
# SIGSTOPped, where hedged reads must still produce the exact answer and
# topk_hedged_requests_total must show the hedges that did it.
cluster-smoke:
	$(GO) build -o /tmp/topk-node ./cmd/topk-node
	$(GO) build -o /tmp/topk-serve ./cmd/topk-serve
	$(GO) build -o /tmp/topk-snap ./cmd/topk-snap
	@rm -rf /tmp/topk-cluster-smoke && mkdir -p /tmp/topk-cluster-smoke
	/tmp/topk-snap save -dir /tmp/topk-cluster-smoke/snap -problem interval -n 5000 -shards 3 -reduction Expected
	@pids=""; trap 'kill -9 $$pids 2>/dev/null' EXIT INT TERM; \
	/tmp/topk-node -coordinator -addr 127.0.0.1:18110 -snapshot-dir /tmp/topk-cluster-smoke/snap \
		-nodes 127.0.0.1:18111,127.0.0.1:18112,127.0.0.1:18113 -replicas 2 -hedge 300ms -deadline 5s -degrade-max & \
	pids="$$pids $$!"; \
	/tmp/topk-node -addr 127.0.0.1:18111 -fetch http://127.0.0.1:18110 -dir /tmp/topk-cluster-smoke/n1 & \
	pids="$$pids $$!"; \
	/tmp/topk-node -addr 127.0.0.1:18112 -fetch http://127.0.0.1:18110 -dir /tmp/topk-cluster-smoke/n2 & \
	pids="$$pids $$!"; \
	/tmp/topk-node -addr 127.0.0.1:18113 -fetch http://127.0.0.1:18110 -dir /tmp/topk-cluster-smoke/n3 & \
	npid=$$!; pids="$$pids $$npid"; \
	/tmp/topk-serve -addr 127.0.0.1:18114 -n 5000 -snapshot-dir /tmp/topk-cluster-smoke/snap & \
	pids="$$pids $$!"; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:18110/readyz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:18110/readyz | grep -q ready || { echo "FAIL: coordinator /readyz never turned ready"; exit 1; }; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18114/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	body='{"queries":[10,30,50,70,90],"k":5}'; \
	want=$$(curl -sf -X POST http://127.0.0.1:18114/query -d "$$body" | sed 's/"elapsed":"[^"]*",//'); \
	got=$$(curl -sf -X POST http://127.0.0.1:18110/query -d "$$body" | sed 's/"elapsed":"[^"]*",//'); \
	[ -n "$$want" ] || { echo "FAIL: reference /query"; exit 1; }; \
	[ "$$want" = "$$got" ] || { echo "FAIL: cluster answer differs from single-process reference"; \
		echo "reference: $$want"; echo "cluster:   $$got"; exit 1; }; \
	kill -STOP $$npid; \
	for q in 5 25 45 65 85 95; do \
		body="{\"queries\":[$$q],\"k\":5}"; \
		want=$$(curl -sf -X POST http://127.0.0.1:18114/query -d "$$body" | sed 's/"elapsed":"[^"]*",//'); \
		got=$$(curl -sf -X POST http://127.0.0.1:18110/query -d "$$body" | sed 's/"elapsed":"[^"]*",//'); \
		[ "$$want" = "$$got" ] || { echo "FAIL: hedged answer differs with a stopped node (q=$$q)"; \
			echo "reference: $$want"; echo "cluster:   $$got"; exit 1; }; \
	done; \
	hedged=$$(curl -sf http://127.0.0.1:18110/metrics | sed -n 's/^topk_hedged_requests_total //p'); \
	[ -n "$$hedged" ] && [ "$$hedged" -gt 0 ] || { echo "FAIL: topk_hedged_requests_total = '$$hedged' with a stopped node, want > 0"; exit 1; }; \
	kill -CONT $$npid 2>/dev/null; \
	echo "cluster-smoke: ok ($$hedged hedged shard requests)"

validate:
	$(GO) run ./cmd/topk-validate

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dating
	$(GO) run ./examples/hotels
	$(GO) run ./examples/geosearch
	$(GO) run ./examples/analytics

clean:
	$(GO) clean ./...

# What CI runs (.github/workflows/ci.yml), runnable locally. CI
# additionally runs staticcheck and govulncheck, which are not vendored
# here.
ci: build vet fmt-check test race cover fuzz-smoke serve-smoke snap-smoke load-smoke ingest-smoke cluster-smoke perfbench-check bench-check
