package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"topk"
	"topk/internal/cluster"
)

// post sends one request to h and returns the recorded response.
func post(h http.Handler, method, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, "/query", strings.NewReader(body)))
	return rec
}

// servedHandler is topk-serve's /query over one in-process index.
func servedHandler(ix topk.Served, def cluster.Limits) http.Handler {
	return cluster.QueryHandler(ix.Problem(), ix.Shards(), cluster.ServedBackend(ix, def, 0, &sync.Mutex{}))
}

// TestQueryHandlerRejects pins the request checks of the one /query
// handler, status codes and error texts, before any backend runs, plus
// the single-process backend's decode error.
func TestQueryHandlerRejects(t *testing.T) {
	spec, _ := topk.ProblemByName("interval")
	ix, err := spec.Build(200, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	h := servedHandler(ix, cluster.Limits{})
	tooMany := `{"queries":[` + strings.Repeat("1,", 10000) + `1],"k":5}`
	rows := []struct {
		name, method, body string
		code               int
		want               string
	}{
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed, "POST only"},
		{"broken-json", http.MethodPost, `{broken`, http.StatusBadRequest, "bad request: "},
		{"no-queries", http.MethodPost, `{"queries":[],"k":5}`, http.StatusBadRequest, "need 1..10000 queries"},
		{"10001-queries", http.MethodPost, tooMany, http.StatusBadRequest, "need 1..10000 queries"},
		{"k=0", http.MethodPost, `{"queries":[1],"k":0}`, http.StatusBadRequest, "need 1 <= k <= 1000"},
		{"k=1001", http.MethodPost, `{"queries":[1],"k":1001}`, http.StatusBadRequest, "need 1 <= k <= 1000"},
		{"undecodable-query", http.MethodPost, `{"queries":[10,"x"],"k":5}`, http.StatusBadRequest, "query 1: "},
		{"ok", http.MethodPost, `{"queries":[10,50],"k":5}`, http.StatusOK, `"results":[{"items":[`},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rec := post(h, row.method, row.body)
			if rec.Code != row.code {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, row.code, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), row.want) {
				t.Fatalf("body %q does not contain %q", rec.Body.String(), row.want)
			}
		})
	}
}

// TestQueryOptionsOverrideRule pins the override rule both backends
// share, with the default and the override each < 0, 0 and > 0: an
// override > 0 replaces the default, < 0 turns the limit off, and 0
// keeps the default.
func TestQueryOptionsOverrideRule(t *testing.T) {
	for _, def := range []int64{-4, 0, 7} {
		for _, req := range []int64{-3, 0, 11} {
			want := def
			switch {
			case req > 0:
				want = req
			case req < 0:
				want = 0
			}

			qc := cluster.QueryOptions{BudgetIOs: req}.QueryCtx(cluster.Limits{BudgetIOs: def})
			if qc.IOBudget != want {
				t.Errorf("budget default %d, override %d: got %d, want %d", def, req, qc.IOBudget, want)
			}

			// The same rule on deadlines, in seconds here: a resolved
			// duration > 0 arms a deadline that far ahead, anything else
			// leaves none.
			before := time.Now()
			qc = cluster.QueryOptions{DeadlineMS: req * 1000}.QueryCtx(cluster.Limits{Deadline: time.Duration(def) * time.Second})
			after := time.Now()
			if want <= 0 {
				if !qc.Deadline.IsZero() {
					t.Errorf("deadline default %ds, override %ds: armed %v, want none", def, req, qc.Deadline)
				}
				continue
			}
			d := time.Duration(want) * time.Second
			if qc.Deadline.Before(before.Add(d)) || qc.Deadline.After(after.Add(d)) {
				t.Errorf("deadline default %ds, override %ds: armed %v from now, want %v",
					def, req, qc.Deadline.Sub(before), d)
			}
		}
	}

	yes, no := true, false
	for _, def := range []bool{false, true} {
		for _, req := range []*bool{nil, &no, &yes} {
			want := def
			if req != nil {
				want = *req
			}
			if got := (cluster.QueryOptions{Degrade: req}).QueryCtx(cluster.Limits{Degrade: def}).DegradeToMax; got != want {
				t.Errorf("degrade default %v, override %v: got %v", def, req, got)
			}
		}
	}

	at := time.Now().Add(-time.Hour)
	qc := cluster.QueryOptions{DeadlineMS: 5000, DeadlineAt: at}.QueryCtx(cluster.Limits{Deadline: time.Second})
	if !qc.Deadline.Equal(at) {
		t.Errorf("DeadlineAt %v did not win over deadline_ms: got %v", at, qc.Deadline)
	}
}

var elapsedField = regexp.MustCompile(`"elapsed":"[^"]*",`)

// TestQueryBodyMatchesCoordinator: for every registered problem, the
// single-process /query backend over spec.Restore(dir) and a 3-node
// coordinator over the same snapshot answer with the same bytes once
// elapsed is stripped — for plain queries, for queries that degrade
// under a one-I/O budget, and for a rejected request.
func TestQueryBodyMatchesCoordinator(t *testing.T) {
	for _, spec := range topk.RegisteredProblems() {
		t.Run(spec.Name, func(t *testing.T) {
			dir, _ := buildSnapshot(t, spec)
			single, err := spec.Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := servedHandler(single, cluster.Limits{})
			co := newCoordinator(t, spec, buildReplicas(t, spec, dir, 2), nil)
			got := cluster.NewServer(co, "", testNodeIDs).Handler()

			queries, err := json.Marshal(spec.WireQueries(testNQ, testSeed+7))
			if err != nil {
				t.Fatal(err)
			}
			for _, body := range []string{
				`{"queries":` + string(queries) + `,"k":5}`,
				`{"queries":` + string(queries) + `,"k":5,"budget_ios":1,"degrade":true}`,
				`{"queries":` + string(queries) + `,"k":0}`,
			} {
				w, g := post(want, http.MethodPost, body), post(got, http.MethodPost, body)
				wb := elapsedField.ReplaceAllString(w.Body.String(), "")
				gb := elapsedField.ReplaceAllString(g.Body.String(), "")
				if w.Code != g.Code || wb != gb {
					t.Fatalf("request %s:\nsingle process %d %s\ncoordinator    %d %s", body, w.Code, wb, g.Code, gb)
				}
			}
		})
	}
}

// TestOneIOBudgetDegrades pins that the one-I/O budget above really
// degrades; otherwise the second request of
// TestQueryBodyMatchesCoordinator would not cover the degraded merge.
func TestOneIOBudgetDegrades(t *testing.T) {
	spec, _ := topk.ProblemByName("interval")
	dir, _ := buildSnapshot(t, spec)
	co := newCoordinator(t, spec, buildReplicas(t, spec, dir, 2), nil)
	yes := true
	res, err := co.Query(context.Background(), spec.WireQueries(testNQ, testSeed+7), testK,
		cluster.QueryOptions{BudgetIOs: 1, Degrade: &yes})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Outcome != topk.OutcomeDegraded.String() || len(r.Items) > 1 {
			t.Fatalf("q%d: outcome %q with %d items, want a degraded top-1", i, r.Outcome, len(r.Items))
		}
	}
}
