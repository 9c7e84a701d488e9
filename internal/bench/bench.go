// Package bench implements the experiment harness: the paper has no
// experimental evaluation (it is a PODS theory paper), so every theorem
// and lemma becomes an experiment that measures the claimed complexity
// shape. DESIGN.md §5 is the authoritative index (E1–E28); each experiment
// here regenerates one row-set recorded in EXPERIMENTS.md.
//
// Experiments print self-describing tables to an io.Writer and are shared
// between cmd/topk-bench (full sweeps) and the package benchmarks /
// harness tests (Quick mode).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives every workload and structure; fixed seed ⇒ identical
	// tables.
	Seed uint64
	// Quick shrinks sweeps by ~8x for use in tests.
	Quick bool
}

// Runner executes one experiment, writing its table to w.
type Runner func(w io.Writer, cfg Config) error

var experiments = map[string]struct {
	title string
	run   Runner
}{
	"E1":  {"Lemma 1: rank sampling failure rate vs δ", runE1},
	"E2":  {"Lemma 3: (1/K)-sample max rank, success ≥ 0.09", runE2},
	"E3":  {"Lemma 2: top-k core-set size and rank guarantee", runE3},
	"E4":  {"Theorem 1 on interval stabbing: O(log_B n) query gap, O(1) space gap", runE4},
	"E5":  {"Theorem 2 on interval stabbing: no degradation", runE5},
	"E6":  {"Reductions face-off: binary-search baseline vs Thm 1 vs Thm 2 vs scan", runE6},
	"E7":  {"Theorem 4: top-k interval stabbing query/update costs", runE7},
	"E8":  {"Theorem 5: top-k point enclosure query scaling", runE8},
	"E9":  {"Theorem 6: top-k 3D dominance query scaling", runE9},
	"E10": {"Theorem 3 (d=2): top-k halfplane query scaling", runE10},
	"E11": {"Theorem 3 (d≥4): no-slowdown regime for polynomial Q_pri", runE11},
	"E12": {"Corollary 1: circular reporting via lifting", runE12},
	"E13": {"Theorem 2 updates: O(1) expected copies, O(U_pri+U_max) cost", runE13},
	"E14": {"Theorem 2 bootstrapping: ladder space ≪ max-structure space", runE14},
	"E15": {"Theorem 1 remark: query ratio flattens as Q_pri hardens", runE15},
	"E16": {"Theorem 2 round geometry: expected O(1) rounds", runE16},
	"E17": {"EM memory semantics: warm-cache queries get cheaper as M grows", runE17},
	"E18": {"RAM-model wall-clock scaling across all six problems", runE18},
	"E19": {"Ablation: fractional cascading on the §5.2 stabbing-max path", runE19},
	"E20": {"Ablation: Theorem 2's ladder growth rate σ", runE20},
	"E21": {"Ablation: Theorem 1's top-f constant (FScale)", runE21},
	"E22": {"Ablation: Corollary 1's lifting trick vs a direct ball predicate", runE22},
	"E23": {"§1.2 reverse reduction: prioritized reporting from a top-k structure", runE23},
	"E24": {"Concurrent query serving: batch throughput vs workers, I/O invariance", runE24},
	"E25": {"Dynamization overlay: amortized insert bound, update/query mix sweep", runE25},
	"E26": {"Lemma 3 via tracing: T2 rounds-per-query tail vs the geometric 0.91^(r-1) bound", runE26},
	"E27": {"Registry sweep: every problem × reduction through the type-erased Served surface", runE27},
	"E28": {"Sharded serving: build time, batch throughput, and I/O cost vs shard count", runE28},
	"E29": {"Warm starts: snapshot restore I/Os vs rebuild I/Os across the registry", runE29},
	"E32": {"Maintenance policies: buffered vs logarithmic amortized inserts, bulk ingest", runE32},
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return ids
}

// Title returns an experiment's one-line description.
func Title(id string) (string, bool) {
	e, ok := experiments[id]
	return e.title, ok
}

// Run executes experiment id.
func Run(id string, w io.Writer, cfg Config) error {
	e, ok := experiments[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(IDs(), " "))
	}
	fmt.Fprintf(w, "## %s — %s\n\n", id, e.title)
	return e.run(w, cfg)
}

// table accumulates aligned rows and renders a markdown table.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) row(cells ...any) {
	r := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			r[i] = v
		case float64:
			r[i] = trimFloat(v)
		case int:
			r[i] = fmt.Sprintf("%d", v)
		case int64:
			r[i] = fmt.Sprintf("%d", v)
		default:
			r[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, r)
}

func trimFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// note writes a commentary line under a table.
func note(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "> "+format+"\n", args...)
}
