// Command topk-bench regenerates the experiment tables recorded in
// EXPERIMENTS.md: one experiment per theorem/lemma of Rahul & Tao (PODS
// 2016), as indexed in DESIGN.md §5.
//
// Usage:
//
//	topk-bench                 # run every experiment (full sweeps)
//	topk-bench -exp E4,E5      # run selected experiments
//	topk-bench -quick          # ~8x smaller sweeps
//	topk-bench -list           # list experiment IDs and titles
//	topk-bench -seed 7         # change the workload seed
//	topk-bench -metrics -      # Prometheus snapshot of a reference workload to stdout
//	topk-bench -metrics m.prom # ... or to a file
//	topk-bench -io-json b.json # benchmark-regression snapshot (see cmd/benchdiff)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"topk/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		quick   = flag.Bool("quick", false, "run reduced sweeps")
		seed    = flag.Uint64("seed", 42, "workload seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		metrics = flag.String("metrics", "", "run an instrumented reference workload and write its Prometheus snapshot to this file (\"-\" = stdout), then exit")
		ioJSON  = flag.String("io-json", "", "run the pinned regression workload and write its JSON snapshot to this file (\"-\" = stdout), then exit")
	)
	flag.Parse()

	if *ioJSON != "" {
		out := os.Stdout
		if *ioJSON != "-" {
			f, err := os.Create(*ioJSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "topk-bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := bench.WriteRegressJSON(out, bench.Config{Seed: *seed}); err != nil {
			fmt.Fprintf(os.Stderr, "topk-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *metrics != "" {
		out := os.Stdout
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				fmt.Fprintf(os.Stderr, "topk-bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := bench.MetricsSnapshot(out, bench.Config{Seed: *seed, Quick: *quick}); err != nil {
			fmt.Fprintf(os.Stderr, "topk-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range bench.IDs() {
			title, _ := bench.Title(id)
			fmt.Printf("%-4s %s\n", id, title)
		}
		return
	}

	ids := bench.IDs()
	if *exp != "" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick}
	fmt.Printf("# topk experiment tables (seed=%d quick=%v)\n\n", *seed, *quick)
	for _, id := range ids {
		start := time.Now()
		if err := bench.Run(id, os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "topk-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("_%s completed in %v_\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
