// Command topk-snap saves, inspects, verifies, and converts index
// snapshots (the versioned on-disk format of DESIGN.md §12). It is the
// operational companion to topk-serve's -snapshot-dir warm start: save
// produces a snapshot directory without running a server, inspect prints
// what a snapshot contains without restoring it, verify proves a restored
// index answers byte-identically to a fresh build, and convert reshards a
// snapshot in place of the usual dump-and-rebuild cycle.
//
// Usage:
//
//	topk-snap save    -dir DIR [-problem interval] [-n 20000] [-seed 42] [-reduction worstcase] [-shards 1] [-updates] [-maintenance buffered]
//	topk-snap inspect -dir DIR [-sections]
//	topk-snap verify  -dir DIR [-queries 200] [-k 10] [-qseed 1]
//	topk-snap convert -src DIR -dst DIR -shards N
//
// save builds the registry's deterministic workload for the problem and
// snapshots it — the same items topk-serve would serve with the same
// flags, so a saved directory warm-starts a server byte-identically.
//
// verify restores the directory, rebuilds the same workload from scratch
// (problem, item count, reduction, and shard count come from the
// manifest; the workload seed must be supplied if it was not the
// default), and diffs top-k, max, and report-above answers over a
// deterministic query set. Any divergence is a corrupt or mislabeled
// snapshot and exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"topk"
	"topk/internal/snap"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "save":
		err = cmdSave(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "topk-snap %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: topk-snap <command> [flags]

commands:
  save     build a registry workload and snapshot it to a directory
  inspect  print a snapshot's manifest (and sections with -sections)
  verify   restore a snapshot and answer-diff it against a fresh build
  convert  rewrite a snapshot at a different shard count

run "topk-snap <command> -h" for the command's flags
`)
	os.Exit(2)
}

// parseReduction maps a reduction's String() name (case-insensitive)
// back to the Reduction value.
func parseReduction(name string) (topk.Reduction, error) {
	for _, r := range topk.AllReductions() {
		if strings.EqualFold(r.String(), name) {
			return r, nil
		}
	}
	var names []string
	for _, r := range topk.AllReductions() {
		names = append(names, r.String())
	}
	return 0, fmt.Errorf("unknown reduction %q (want one of: %s)", name, strings.Join(names, ", "))
}

func specFor(problem string) (topk.ProblemSpec, error) {
	spec, ok := topk.ProblemByName(problem)
	if !ok {
		return topk.ProblemSpec{}, fmt.Errorf("unknown problem %q (want one of: %s)", problem, strings.Join(topk.ProblemNames(), ", "))
	}
	return spec, nil
}

func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	var (
		dir       = fs.String("dir", "", "snapshot directory to write (required)")
		problem   = fs.String("problem", "interval", "problem to build: "+strings.Join(topk.ProblemNames(), " | "))
		n         = fs.Int("n", 20000, "number of indexed items")
		seed      = fs.Uint64("seed", 42, "workload seed")
		reduction = fs.String("reduction", "WorstCase", "reduction to build with")
		shards    = fs.Int("shards", 1, "partition across this many shards")
		updates   = fs.Bool("updates", false, "build with the dynamization overlay (WithUpdates)")
		maint     = fs.String("maintenance", "logarithmic", "overlay maintenance policy: logarithmic | buffered (only meaningful with -updates)")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	spec, err := specFor(*problem)
	if err != nil {
		return err
	}
	red, err := parseReduction(*reduction)
	if err != nil {
		return err
	}
	opts := []topk.Option{topk.WithSeed(*seed), topk.WithReduction(red)}
	if *updates {
		opts = append(opts, topk.WithUpdates())
	}
	switch *maint {
	case "logarithmic":
	case "buffered":
		opts = append(opts, topk.WithMaintenancePolicy(topk.PolicyBuffered))
	default:
		return fmt.Errorf("unknown -maintenance %q (want logarithmic or buffered)", *maint)
	}
	var ix topk.Served
	if *shards > 1 {
		ix, err = spec.BuildSharded(*n, *shards, *seed, opts...)
	} else {
		ix, err = spec.Build(*n, *seed, opts...)
	}
	if err != nil {
		return err
	}
	if err := ix.Snapshot(*dir); err != nil {
		return err
	}
	mf, err := topk.ReadManifest(*dir)
	if err != nil {
		return err
	}
	var bytes int64
	for _, f := range mf.Files {
		bytes += f.Bytes
	}
	fmt.Printf("saved %s: %s/%s, %d items, %d shard(s), %d bytes\n",
		*dir, mf.Problem, mf.Reduction, mf.Items, mf.Shards, bytes)
	return nil
}

var sectionNames = map[uint16]string{
	snap.SecEnd:             "end",
	snap.SecHeader:          "header",
	snap.SecConfig:          "config",
	snap.SecItems:           "items",
	snap.SecOverlayLevel:    "overlay-level",
	snap.SecOverlayTail:     "overlay-tail",
	snap.SecOverlayCounters: "overlay-counters",
	snap.SecOverlayPolicy:   "overlay-policy",
}

var kindNames = map[uint8]string{
	snap.KindStatic:  "static",
	snap.KindOverlay: "overlay",
	snap.KindNative:  "native-dynamic",
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	var (
		dir      = fs.String("dir", "", "snapshot directory to inspect (required)")
		sections = fs.Bool("sections", false, "also walk each shard file's sections")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	mf, err := topk.ReadManifest(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("format      v%d\n", mf.FormatVersion)
	fmt.Printf("problem     %s", mf.Problem)
	if mf.Dim > 0 {
		fmt.Printf(" (dim %d)", mf.Dim)
	}
	fmt.Println()
	fmt.Printf("reduction   %s\n", mf.Reduction)
	if mf.Maintenance != "" {
		fmt.Printf("maintenance %s\n", mf.Maintenance)
	}
	fmt.Printf("items       %d\n", mf.Items)
	if mf.Partitioned {
		fmt.Printf("shards      %d (by weight hash)\n", mf.Shards)
	} else {
		fmt.Printf("shards      1 (unpartitioned)\n")
	}
	for _, f := range mf.Files {
		fmt.Printf("file        %s  shard %d  %d items  %d bytes  crc32 %08x\n",
			f.Name, f.Shard, f.Items, f.Bytes, f.CRC32)
		if *sections {
			if err := inspectFile(filepath.Join(*dir, f.Name)); err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
		}
	}
	return nil
}

// inspectFile walks one shard file's sections, verifying framing and
// checksums along the way (Next fails on any corruption).
func inspectFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := snap.NewReader(f)
	if err != nil {
		return err
	}
	h, err := rd.ReadHeader()
	if err != nil {
		return err
	}
	fmt.Printf("            header: %s/%s kind=%s items=%d dim=%d\n",
		h.Problem, h.Reduction, kindNames[h.Kind], h.Items, h.Dim)
	for {
		typ, sec, err := rd.Next()
		if err != nil {
			return err
		}
		if typ == snap.SecEnd {
			return nil
		}
		name := sectionNames[typ]
		if name == "" {
			name = fmt.Sprintf("unknown(%d)", typ)
		}
		fmt.Printf("            section %-17s %6d bytes\n", name, sec.Len())
		if typ == snap.SecOverlayPolicy {
			printPolicySection(sec)
		}
	}
}

// printPolicySection decodes the version-2 overlay-policy section: the
// maintenance policy id, its partial-rebuild counter, and the buffered
// ladder's per-tier run occupancy.
func printPolicySection(sec *snap.Section) {
	id := sec.RStr()
	partials := sec.RI64()
	n := sec.RCount(16)
	runs := map[int]int{}
	maxTier := -1
	for i := 0; i < n; i++ {
		sec.RU64() // slot: placement detail, occupancy is what matters here
		tier := int(sec.RU64())
		runs[tier]++
		if tier > maxTier {
			maxTier = tier
		}
	}
	fmt.Printf("              policy %s, %d partial rebuild(s), %d pending run(s)\n", id, partials, n)
	for t := 0; t <= maxTier; t++ {
		fmt.Printf("              tier %d: %d run(s)\n", t, runs[t])
	}
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "snapshot directory to verify (required)")
		seed    = fs.Uint64("seed", 42, "workload seed the snapshot was built from")
		queries = fs.Int("queries", 200, "number of deterministic queries to diff")
		k       = fs.Int("k", 10, "top-k size")
		qseed   = fs.Uint64("qseed", 1, "query-generation seed")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	mf, err := topk.ReadManifest(*dir)
	if err != nil {
		return err
	}
	spec, err := specFor(mf.Problem)
	if err != nil {
		return err
	}
	red, err := parseReduction(mf.Reduction)
	if err != nil {
		return err
	}

	restored, err := spec.Restore(*dir)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	restoreReads := restored.Stats().Reads

	opts := []topk.Option{topk.WithSeed(*seed), topk.WithReduction(red)}
	var fresh topk.Served
	if mf.Partitioned {
		fresh, err = spec.BuildSharded(int(mf.Items), mf.Shards, *seed, opts...)
	} else {
		fresh, err = spec.Build(int(mf.Items), *seed, opts...)
	}
	if err != nil {
		return fmt.Errorf("fresh build: %w", err)
	}

	if restored.Len() != fresh.Len() {
		return fmt.Errorf("restored index holds %d items, fresh build holds %d — wrong seed, or snapshot taken after updates (verify only covers as-built snapshots)", restored.Len(), fresh.Len())
	}
	qs := fresh.GenQueries(*queries, *qseed)
	for i, q := range qs {
		if got, want := restored.TopK(q, *k), fresh.TopK(q, *k); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("query %d: top-%d answers diverge\n  restored: %v\n  fresh:    %v", i, *k, got, want)
		}
		gm, gok := restored.Max(q)
		wm, wok := fresh.Max(q)
		if gok != wok || (gok && gm != wm) {
			return fmt.Errorf("query %d: max answers diverge (restored %v,%v; fresh %v,%v)", i, gm, gok, wm, wok)
		}
		var tau float64
		if wok {
			tau = wm.Weight / 2
		}
		if got, want := restored.ReportAbove(q, tau), fresh.ReportAbove(q, tau); !sameSet(got, want) {
			return fmt.Errorf("query %d: report-above answers diverge (%d vs %d items)", i, len(got), len(want))
		}
	}
	fmt.Printf("verified %s: %d queries identical on %s/%s, %d items, %d shard(s); restore cost %d read I/Os\n",
		*dir, len(qs), mf.Problem, mf.Reduction, mf.Items, restored.Shards(), restoreReads)
	return nil
}

// sameSet compares two ReportAbove answers ignoring order (the contract
// leaves enumeration order unspecified, and shard merge order may differ
// between a restored and a fresh partition).
func sameSet(a, b []topk.ServedItem) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[float64]topk.ServedItem, len(a))
	for _, it := range a {
		seen[it.Weight] = it
	}
	for _, it := range b {
		got, ok := seen[it.Weight]
		if !ok || got != it {
			return false
		}
	}
	return true
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var (
		src    = fs.String("src", "", "source snapshot directory (required)")
		dst    = fs.String("dst", "", "destination snapshot directory (required)")
		shards = fs.Int("shards", 0, "target shard count (required, >= 1)")
	)
	fs.Parse(args)
	if *src == "" || *dst == "" {
		return fmt.Errorf("-src and -dst are required")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	mf, err := topk.ReadManifest(*src)
	if err != nil {
		return err
	}
	spec, err := specFor(mf.Problem)
	if err != nil {
		return err
	}
	if err := spec.Reshard(*src, *dst, *shards); err != nil {
		return err
	}
	fmt.Printf("converted %s (%d shard(s)) -> %s (%d shard(s)), %d items\n",
		*src, mf.Shards, *dst, *shards, mf.Items)
	return nil
}
