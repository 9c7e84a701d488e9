package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestIDsCoverAllExperiments(t *testing.T) {
	ids := IDs()
	if len(ids) != 30 {
		t.Fatalf("%d experiments registered, want 30: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[len(ids)-1] != "E32" {
		t.Fatalf("IDs not in numeric order: %v", ids)
	}
	for _, id := range ids {
		if _, ok := Title(id); !ok {
			t.Errorf("no title for %s", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("E99", &buf, Config{Seed: 1, Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsRunQuick executes every experiment in Quick mode: the
// tables must render, contain at least one data row, and no bound check
// may report "NO".
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(id, &buf, Config{Seed: 42, Quick: true}); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, "|") {
				t.Fatalf("%s produced no table:\n%s", id, out)
			}
			if strings.Contains(out, "| NO") || strings.Contains(out, " NO |") {
				t.Errorf("%s reported a violated bound:\n%s", id, out)
			}
			if !strings.Contains(out, ">") {
				t.Errorf("%s has no interpretation note", id)
			}
		})
	}
}

// TestRegressUpdateRowsGateBulkIngest is the gated bench-row assertion
// behind ISSUE 9: for every (policy, problem) cell of the update row
// family, one InsertBatch of m items must cost fewer I/Os than the m
// single Inserts measured alongside it.
func TestRegressUpdateRowsGateBulkIngest(t *testing.T) {
	rep := &RegressReport{}
	if err := regressUpdates(Config{Seed: 42}, rep); err != nil {
		t.Fatal(err)
	}
	ios := map[string]int64{}
	for _, row := range rep.IO {
		ios[row.Key] = row.IOs
	}
	for _, pol := range []string{"logarithmic", "buffered"} {
		for _, prob := range []string{"interval", "range"} {
			single, okS := ios["update/"+pol+"/"+prob+"/insert"]
			batch, okB := ios["update/"+pol+"/"+prob+"/ingest"]
			if !okS || !okB {
				t.Fatalf("update rows missing for %s/%s: %v", pol, prob, ios)
			}
			if batch >= single {
				t.Errorf("update/%s/%s: ingest cost %d ≥ %d for the same %d items singly",
					pol, prob, batch, single, regressUpdateOps)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("a", "long-header")
	tb.row(1, 2.5)
	tb.row("x", int64(7))
	var buf bytes.Buffer
	tb.write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table rendered %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "|") || !strings.HasSuffix(l, "|") {
			t.Fatalf("malformed table line %q", l)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{12345, "12345"},
		{42.25, "42.2"},
		{3.14159, "3.142"},
		{0.00001, "1.00e-05"},
	}
	for _, c := range cases {
		if got := trimFloat(c.in); got != c.want {
			t.Errorf("trimFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := Intervals(5, 100, 10)
	b := Intervals(5, 100, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Intervals not deterministic in the seed")
		}
	}
	c := Intervals(6, 100, 10)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 identical items", same)
	}
}

func TestWorkloadValidity(t *testing.T) {
	for _, it := range Intervals(7, 500, 10) {
		if !it.Value.Valid() {
			t.Fatalf("invalid interval %+v", it.Value)
		}
	}
	for _, it := range Rects(7, 500) {
		if !it.Value.Valid() {
			t.Fatalf("invalid rect %+v", it.Value)
		}
	}
	seen := map[float64]bool{}
	for _, it := range Hotels(7, 500) {
		if seen[it.Weight] {
			t.Fatalf("duplicate weight %v", it.Weight)
		}
		seen[it.Weight] = true
	}
	for _, it := range GaussianND(7, 100, 5) {
		if len(it.Value.C) != 5 {
			t.Fatalf("point with %d coords", len(it.Value.C))
		}
	}
	for _, q := range Halfspaces(7, 50, 4) {
		norm := 0.0
		for _, a := range q.A {
			norm += a * a
		}
		if norm < 0.99 || norm > 1.01 {
			t.Fatalf("halfspace normal not unit: %v", norm)
		}
	}
}
