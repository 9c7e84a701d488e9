package topk

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"topk/internal/snap"
)

// This file is the persistence conformance suite (DESIGN.md §12): for
// every registered problem × reduction × shard count, a snapshotted and
// restored index must answer every query byte-identically to the
// original, at a restore cost of one sequential read pass instead of a
// rebuild. Like conformance_test.go it iterates RegisteredProblems(), so
// new problems are covered the moment their ProblemSpec lands.

// answersOf collects a deterministic answer transcript from a served
// index: top-k at several k, max, and report-above for each query.
// Weights and labels both participate, so any payload divergence fails
// DeepEqual.
func answersOf(sv Served, qs []any) []ServedItem {
	var out []ServedItem
	for _, q := range qs {
		for _, k := range []int{1, 5, 50} {
			out = append(out, sv.TopK(q, k)...)
		}
		if m, ok := sv.Max(q); ok {
			out = append(out, m)
		}
		if m, ok := sv.Max(q); ok {
			above := sv.ReportAbove(q, m.Weight/2)
			// ReportAbove order is unspecified; canonicalize by weight set
			// size plus the max element so shard merge order can't matter.
			out = append(out, ServedItem{Weight: float64(len(above)), Label: "count"})
		}
	}
	return out
}

func TestConformanceSnapshotRoundTrip(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		for _, r := range AllReductions() {
			for _, shards := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", spec.Name, r, shards), func(t *testing.T) {
					var (
						sv  Served
						err error
					)
					if shards > 1 {
						sv, err = spec.BuildSharded(confN, shards, confSeed, WithReduction(r))
					} else {
						sv, err = spec.Build(confN, confSeed, WithReduction(r))
					}
					if err != nil {
						t.Fatal(err)
					}

					dir := t.TempDir()
					if err := sv.Snapshot(dir); err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					restored, err := spec.Restore(dir)
					if err != nil {
						t.Fatalf("restore: %v", err)
					}

					if restored.Len() != sv.Len() {
						t.Fatalf("restored Len = %d, want %d", restored.Len(), sv.Len())
					}
					if restored.Shards() != sv.Shards() {
						t.Fatalf("restored Shards = %d, want %d", restored.Shards(), sv.Shards())
					}
					if got, want := restored.ShardSizes(), sv.ShardSizes(); !reflect.DeepEqual(got, want) {
						t.Fatalf("restored ShardSizes = %v, want %v", got, want)
					}

					qs := sv.GenQueries(8, confQSeed)
					if got, want := answersOf(restored, qs), answersOf(sv, qs); !reflect.DeepEqual(got, want) {
						t.Fatalf("restored answers diverge from original\n  restored: %v\n  original: %v", got, want)
					}

					// Stats shape: same reduction, same space usage (the
					// rebuild is deterministic), flow counters rewritten to
					// one sequential pass — reads > 0, zero writes.
					sv.ResetStats()
					os, rs := sv.Stats(), restored.Stats()
					if rs.Reduction != os.Reduction {
						t.Fatalf("restored reduction %v, want %v", rs.Reduction, os.Reduction)
					}
					if rs.Blocks != os.Blocks {
						t.Fatalf("restored Blocks = %d, want %d", rs.Blocks, os.Blocks)
					}
					if rs.Reads <= 0 || rs.Writes != 0 {
						t.Fatalf("restore cost Reads=%d Writes=%d, want one sequential read pass and no writes", rs.Reads, rs.Writes)
					}

					// LoadSnapshot dispatches on the manifest and must land
					// on the same problem and answers.
					loaded, err := LoadSnapshot(dir)
					if err != nil {
						t.Fatalf("LoadSnapshot: %v", err)
					}
					if loaded.Problem() != spec.Name {
						t.Fatalf("LoadSnapshot problem %q, want %q", loaded.Problem(), spec.Name)
					}
					if got, want := answersOf(loaded, qs), answersOf(sv, qs); !reflect.DeepEqual(got, want) {
						t.Fatal("LoadSnapshot answers diverge from original")
					}
				})
			}
		}
	}
}

// TestConformanceSnapshotAfterUpdates snapshots an overlay index mid-life
// — after inserts and deletes, with levels, tombstones, and a partial
// tail — and checks the restored index continues identically, including
// through further updates.
func TestConformanceSnapshotAfterUpdates(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.Name, shards), func(t *testing.T) {
				var (
					sv  Served
					err error
				)
				if shards > 1 {
					sv, err = spec.BuildSharded(confN, shards, confSeed, WithUpdates())
				} else {
					sv, err = spec.Build(confN, confSeed, WithUpdates())
				}
				if err != nil {
					t.Fatal(err)
				}
				var fresh []float64
				for i := 0; i < 40; i++ {
					w, err := sv.InsertFresh(uint64(1000 + i))
					if err != nil {
						t.Fatal(err)
					}
					fresh = append(fresh, w)
				}
				for _, w := range fresh[:10] {
					if ok, err := sv.Delete(w); err != nil || !ok {
						t.Fatalf("delete %v: ok=%v err=%v", w, ok, err)
					}
				}

				dir := t.TempDir()
				if err := sv.Snapshot(dir); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				restored, err := spec.Restore(dir)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if restored.Len() != sv.Len() {
					t.Fatalf("restored Len = %d, want %d", restored.Len(), sv.Len())
				}
				qs := sv.GenQueries(8, confQSeed)
				if got, want := answersOf(restored, qs), answersOf(sv, qs); !reflect.DeepEqual(got, want) {
					t.Fatal("restored answers diverge from original after updates")
				}

				// The restored index keeps working as a dynamic structure,
				// in lockstep with the original.
				for i := 0; i < 10; i++ {
					wo, err := sv.InsertFresh(uint64(5000 + i))
					if err != nil {
						t.Fatal(err)
					}
					wr, err := restored.InsertFresh(uint64(5000 + i))
					if err != nil {
						t.Fatal(err)
					}
					if wo != wr {
						t.Fatalf("InsertFresh diverged: %v vs %v", wo, wr)
					}
				}
				if ok, err := restored.Delete(fresh[20]); err != nil || !ok {
					t.Fatalf("restored delete: ok=%v err=%v", ok, err)
				}
				if ok, _ := restored.Delete(fresh[0]); ok {
					t.Fatal("restored index resurrected a deleted weight")
				}
				if _, err := sv.Delete(fresh[20]); err != nil {
					t.Fatal(err)
				}
				if got, want := answersOf(restored, qs), answersOf(sv, qs); !reflect.DeepEqual(got, want) {
					t.Fatal("restored answers diverge after post-restore updates")
				}
			})
		}
	}
}

// TestSnapshotStreamCorruption feeds damaged snapshot streams to a typed
// restore constructor: every case must return a descriptive error — and
// never panic, which the fuzz target FuzzSnapshotRestore extends to
// arbitrary bytes.
func TestSnapshotStreamCorruption(t *testing.T) {
	ix, err := NewIntervalIndex([]IntervalItem[int]{
		{Lo: 0, Hi: 10, Weight: 1, Data: 1},
		{Lo: 5, Hi: 15, Weight: 2, Data: 2},
		{Lo: 8, Hi: 20, Weight: 3, Data: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	flip := func(off int) []byte {
		b := append([]byte(nil), valid...)
		b[off] ^= 0xFF
		return b
	}
	cases := []struct {
		name    string
		input   []byte
		wantSub string
	}{
		{"empty", nil, "truncated"},
		{"bad magic", flip(0), "magic"},
		{"unknown version", flip(4), "version"},
		{"flipped payload byte", flip(20), "checksum"},
		// The stream tail is [..payload][crc32][SecEnd: type u16, len
		// u32, crc u32]; len(valid)-11 lands in the last data section's
		// checksum.
		{"flipped trailing checksum", flip(len(valid) - 11), "checksum"},
		{"truncated mid-section", valid[:len(valid)/2], "unexpected EOF"},
		{"missing end marker", valid[:len(valid)-6], "unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreIntervalIndex[int](bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("corrupt stream restored without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// Cross-problem restore: the header names the snapshotted problem,
	// so feeding interval bytes to the range constructor must fail with
	// both names in the message.
	if _, err := RestoreRangeIndex[int](bytes.NewReader(valid)); err == nil {
		t.Fatal("range constructor accepted an interval snapshot")
	} else if !strings.Contains(err.Error(), "interval") || !strings.Contains(err.Error(), "range") {
		t.Fatalf("cross-problem error %q should name both problems", err)
	}
}

// TestSnapshotDirCorruption damages snapshot directories — the manifest
// and the shard files it indexes — and checks Restore reports what went
// wrong instead of restoring silently-wrong state.
func TestSnapshotDirCorruption(t *testing.T) {
	spec, ok := ProblemByName("interval")
	if !ok {
		t.Fatal("interval not registered")
	}
	build := func(t *testing.T, shards int) string {
		sv, err := spec.BuildSharded(confN, shards, confSeed)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := sv.Snapshot(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("missing manifest", func(t *testing.T) {
		_, err := spec.Restore(t.TempDir())
		if err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("err = %v, want manifest error", err)
		}
	})
	t.Run("future format version", func(t *testing.T) {
		dir := build(t, 2)
		path := filepath.Join(dir, ManifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.Replace(raw, []byte(fmt.Sprintf(`"format_version": %d`, snap.Version)), []byte(`"format_version": 99`), 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = spec.Restore(dir)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("err = %v, want version error", err)
		}
	})
	t.Run("shard file corrupted", func(t *testing.T) {
		dir := build(t, 2)
		path := filepath.Join(dir, "shard-001.snap")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = spec.Restore(dir)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v, want checksum error", err)
		}
	})
	t.Run("shard file truncated", func(t *testing.T) {
		dir := build(t, 2)
		path := filepath.Join(dir, "shard-000.snap")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = spec.Restore(dir)
		if err == nil {
			t.Fatal("truncated shard file restored without error")
		}
	})
	t.Run("shard file missing", func(t *testing.T) {
		dir := build(t, 2)
		if err := os.Remove(filepath.Join(dir, "shard-001.snap")); err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Restore(dir); err == nil {
			t.Fatal("restore succeeded with a missing shard file")
		}
	})
	// ReadManifest validates a manifest once for every consumer; each
	// edit below must be refused before any shard file is decoded.
	for _, c := range []struct {
		name, want string
		edit       func(*Manifest)
	}{
		{"unpartitioned manifest with two shards", "unpartitioned", func(mf *Manifest) { mf.Partitioned = false }},
		{"shard listed twice", "twice", func(mf *Manifest) { mf.Files[1].Shard = 0 }},
		{"shard out of range", "names shard", func(mf *Manifest) { mf.Files[1].Shard = 2 }},
		{"file name climbs out", "plain file name", func(mf *Manifest) { mf.Files[1].Name = "../shard-001.snap" }},
		{"file name has a directory", "plain file name", func(mf *Manifest) { mf.Files[1].Name = "sub/shard-001.snap" }},
		{"file name is dot-dot", "plain file name", func(mf *Manifest) { mf.Files[1].Name = ".." }},
		{"file name is empty", "plain file name", func(mf *Manifest) { mf.Files[1].Name = "" }},
		{"items disagree with files", "declares", func(mf *Manifest) { mf.Items++ }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := build(t, 2)
			editManifest(t, dir, c.edit)
			if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadManifest err = %v, want %q", err, c.want)
			}
			if _, err := LoadSnapshot(dir); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadSnapshot err = %v, want %q", err, c.want)
			}
		})
	}
	t.Run("unknown problem in manifest", func(t *testing.T) {
		dir := build(t, 1)
		path := filepath.Join(dir, ManifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.Replace(raw, []byte(`"problem": "interval"`), []byte(`"problem": "nonesuch"`), 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(dir); err == nil || !strings.Contains(err.Error(), "nonesuch") {
			t.Fatalf("err = %v, want unknown-problem error", err)
		}
	})
}

// editManifest rewrites dir's manifest through edit.
func editManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var mf Manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	edit(&mf)
	if err := writeManifest(dir, mf); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceRestoreRouting checks that a restored partitioned
// index routes by weight hash alone, for every registered problem: each
// live weight of a restored 3-shard index is found on its home shard, so
// every Delete succeeds once and only once and the index drains to
// empty. A manifest that still names a shard policy restores; one whose
// entries swap two shard numbers puts every item of those files off its
// home, and the restore refuses it.
func TestConformanceRestoreRouting(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		t.Run(spec.Name, func(t *testing.T) {
			sv, err := spec.BuildSharded(0, 3, confSeed, WithUpdates())
			if err != nil {
				t.Fatal(err)
			}
			// Weights the test knows: a bulk batch plus single inserts.
			const batch = 60
			if err := sv.InsertBatch(decodeAll(t, sv, wireItems(t, spec.Name, batch))); err != nil {
				t.Fatal(err)
			}
			var weights []float64
			for i := 0; i < batch; i++ {
				weights = append(weights, 2e6+float64(i))
			}
			for i := 0; i < 20; i++ {
				w, err := sv.InsertFresh(uint64(100 + i))
				if err != nil {
					t.Fatal(err)
				}
				weights = append(weights, w)
			}
			rst, dir := throughDisk(t, spec, sv)
			if rst.Len() != len(weights) {
				t.Fatalf("restored Len = %d, want %d", rst.Len(), len(weights))
			}
			for _, w := range weights {
				if ok, err := rst.Delete(w); !ok || err != nil {
					t.Fatalf("first Delete(%v) = %v, %v; want true", w, ok, err)
				}
				if ok, err := rst.Delete(w); ok || err != nil {
					t.Fatalf("second Delete(%v) = %v, %v; want false", w, ok, err)
				}
			}
			if rst.Len() != 0 {
				t.Fatalf("Len after deleting every weight = %d", rst.Len())
			}

			// A manifest written while shard policies existed carries two
			// more fields; a weight-hash snapshot still restores from it.
			path := filepath.Join(dir, ManifestName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.Replace(raw, []byte(`"partitioned": true,`), []byte(`"partitioned": true, "policy": "ShardByWeight", "rr_cursor": 2,`), 1)
			if !bytes.Contains(raw, []byte("rr_cursor")) {
				t.Fatalf("manifest has no partitioned field to patch:\n%s", raw)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if old, err := spec.Restore(dir); err != nil || old.Len() != len(weights) {
				t.Fatalf("restore from a manifest with policy fields: %v", err)
			}

			editManifest(t, dir, func(mf *Manifest) {
				mf.Files[0].Shard, mf.Files[1].Shard = mf.Files[1].Shard, mf.Files[0].Shard
			})
			if _, err := spec.Restore(dir); err == nil || !strings.Contains(err.Error(), "hashes to shard") {
				t.Fatalf("restore of swapped shards: err = %v, want a placement error", err)
			}
		})
	}
}

// TestSnapshotReshard checks the bulk shard-shipping transform: a
// snapshot rewritten at a different shard count serves the same items
// with the same answers.
func TestSnapshotReshard(t *testing.T) {
	spec, ok := ProblemByName("interval")
	if !ok {
		t.Fatal("interval not registered")
	}
	sv, err := spec.BuildSharded(confN, 8, confSeed)
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	if err := sv.Snapshot(src); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 8} {
		dst := t.TempDir()
		if err := spec.Reshard(src, dst, shards); err != nil {
			t.Fatalf("reshard to %d: %v", shards, err)
		}
		re, err := spec.Restore(dst)
		if err != nil {
			t.Fatalf("restore resharded(%d): %v", shards, err)
		}
		if re.Shards() != shards {
			t.Fatalf("resharded Shards = %d, want %d", re.Shards(), shards)
		}
		if re.Len() != sv.Len() {
			t.Fatalf("resharded Len = %d, want %d", re.Len(), sv.Len())
		}
		qs := sv.GenQueries(8, confQSeed)
		if got, want := answersOf(re, qs), answersOf(sv, qs); !reflect.DeepEqual(got, want) {
			t.Fatalf("resharded(%d) answers diverge from original", shards)
		}
	}
}

// TestSnapshotConcurrentWithQueryBatch checkpoints an index while two
// goroutines run QueryBatch on it, as topk-serve does when it snapshots
// under a read lock with queries in flight. The checkpoint must not
// disturb the queries: no panic, every batch equal to one run without a
// concurrent snapshot (per-query Stats included), and each snapshot
// restoring to identical answers.
func TestSnapshotConcurrentWithQueryBatch(t *testing.T) {
	for _, c := range []struct {
		problem string
		opts    []Option
	}{
		{"interval", []Option{WithReduction(Expected)}},
		{"ortho", []Option{WithUpdates()}},
	} {
		t.Run(c.problem, func(t *testing.T) {
			spec, ok := ProblemByName(c.problem)
			if !ok {
				t.Fatalf("%s not registered", c.problem)
			}
			sv, err := spec.Build(confN, confSeed, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			const k = 10
			qs := sv.GenQueries(32, confQSeed)
			want := sv.QueryBatch(qs, k, 2)

			// The queriers loop until every snapshot is written, so the
			// snapshots run while query views are open.
			const snapshots = 3
			stop := make(chan struct{})
			started := make(chan struct{}, 2)
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					started <- struct{}{}
					for i := 0; ; i++ {
						if got := sv.QueryBatch(qs, k, 2); !reflect.DeepEqual(got, want) {
							t.Errorf("querier %d batch %d differs from the run without a snapshot", g, i)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}(g)
			}
			<-started
			<-started
			dirs := make([]string, snapshots)
			for i := range dirs {
				dirs[i] = t.TempDir()
				if err := sv.Snapshot(dirs[i]); err != nil {
					t.Errorf("snapshot %d: %v", i, err)
				}
			}
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}

			for i, dir := range dirs {
				restored, err := spec.Restore(dir)
				if err != nil {
					t.Fatalf("restore snapshot %d: %v", i, err)
				}
				got := restored.QueryBatch(qs, k, 2)
				for qi := range qs {
					if !reflect.DeepEqual(got[qi].Items, want[qi].Items) {
						t.Fatalf("snapshot %d, query %d: restored answer %v, want %v", i, qi, got[qi].Items, want[qi].Items)
					}
				}
			}
		})
	}
}

// The tests below keep the names of the disk conformance suite. That
// suite compared every index against a copy on the file-backed block
// store, which is retired (DESIGN.md §13); an index's on-disk form is
// now its snapshot, so each test pins the same claim on that path: the
// copy that went through disk is indistinguishable from the source,
// per-query I/O included, which answersOf alone does not compare.

// diskShardCounts keeps the on-disk matrix at the degenerate single
// shard plus the smallest real partition; wider partitions exercise no
// new snapshot code (one file per shard either way).
var diskShardCounts = []int{1, 2}

// buildShards builds spec's conformance index, partitioned when shards
// is greater than one.
func buildShards(t *testing.T, spec ProblemSpec, shards int, opts ...Option) Served {
	t.Helper()
	var (
		sv  Served
		err error
	)
	if shards > 1 {
		sv, err = spec.BuildSharded(confN, shards, confSeed, opts...)
	} else {
		sv, err = spec.Build(confN, confSeed, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// throughDisk snapshots sv into a fresh directory and restores it,
// returning the restored index and the directory.
func throughDisk(t *testing.T, spec ProblemSpec, sv Served) (Served, string) {
	t.Helper()
	dir := t.TempDir()
	if err := sv.Snapshot(dir); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	rst, err := spec.Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return rst, dir
}

// diffAnswers fails the test unless two batch results are identical in
// items (weight and label) and in per-query I/O stats.
func diffAnswers(t *testing.T, want, got []BatchResult[ServedItem]) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("batch sizes differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Stats != b.Stats {
			t.Fatalf("q%d: stats diverge: %+v (want) != %+v (got)", i, a.Stats, b.Stats)
		}
		if len(a.Items) != len(b.Items) {
			t.Fatalf("q%d: %d items (want) != %d items (got)", i, len(a.Items), len(b.Items))
		}
		for j := range a.Items {
			if a.Items[j].Weight != b.Items[j].Weight || a.Items[j].Label != b.Items[j].Label {
				t.Fatalf("q%d item %d: %v/%q (want) != %v/%q (got)",
					i, j, a.Items[j].Weight, a.Items[j].Label, b.Items[j].Weight, b.Items[j].Label)
			}
		}
	}
}

// TestConformanceDiskStore checks, for every problem × reduction ×
// shard count, that an index restored from its on-disk snapshot serves
// the whole query surface exactly like the source: QueryBatch answers
// and per-query I/O stats, full-width TopK, Max, and ReportAbove at the
// median answer weight, over the same space in blocks.
func TestConformanceDiskStore(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		for _, r := range AllReductions() {
			for _, shards := range diskShardCounts {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", spec.Name, r, shards), func(t *testing.T) {
					src := buildShards(t, spec, shards, WithReduction(r))
					rst, _ := throughDisk(t, spec, src)
					if ss, rs := src.Stats(), rst.Stats(); rs.Blocks != ss.Blocks || rs.Reduction != ss.Reduction {
						t.Fatalf("restored space %d blocks under %v, want %d under %v",
							rs.Blocks, rs.Reduction, ss.Blocks, ss.Reduction)
					}
					qs := src.GenQueries(6, confQSeed)
					diffAnswers(t, src.QueryBatch(qs, 5, 1), rst.QueryBatch(qs, 5, 1))

					q := qs[0]
					want := servedWeights(src.TopK(q, confN))
					if got := servedWeights(rst.TopK(q, confN)); !reflect.DeepEqual(got, want) {
						t.Fatalf("TopK(n) = %v, want %v", got, want)
					}
					rm, rok := rst.Max(q)
					sm, sok := src.Max(q)
					if rok != sok || rm != sm {
						t.Fatalf("Max = (%v, %v) (restored) != (%v, %v) (source)", rm, rok, sm, sok)
					}
					if len(want) > 0 {
						tau := want[(len(want)-1)/2]
						if got, want := weightSet(rst.ReportAbove(q, tau)), weightSet(src.ReportAbove(q, tau)); !reflect.DeepEqual(got, want) {
							t.Fatalf("ReportAbove(%v): %d items, want %d", tau, len(got), len(want))
						}
					}
				})
			}
		}
	}
}

// TestConformanceDiskParallelQueries checks the determinism contract on
// an index restored from disk: per-query answers and stats are
// identical at batch parallelism 1 and 4, and equal the source's.
func TestConformanceDiskParallelQueries(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		t.Run(spec.Name, func(t *testing.T) {
			src := buildShards(t, spec, 1)
			rst, _ := throughDisk(t, spec, src)
			qs := rst.GenQueries(12, confQSeed)
			serial := rst.QueryBatch(qs, 5, 1)
			diffAnswers(t, serial, rst.QueryBatch(qs, 5, 4))
			diffAnswers(t, src.QueryBatch(qs, 5, 1), serial)
		})
	}
}

// TestConformanceDiskSnapshotRestore checks the snapshot round trip in
// both directions: an index restored from disk snapshots back to the
// same files (sizes and checksums in the manifest), and restoring those
// again gives an index that answers like the source, per-query stats
// included, at the same one-pass restore cost.
func TestConformanceDiskSnapshotRestore(t *testing.T) {
	for _, spec := range RegisteredProblems() {
		for _, shards := range diskShardCounts {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.Name, shards), func(t *testing.T) {
				src := buildShards(t, spec, shards)
				once, dir1 := throughDisk(t, spec, src)
				cost := once.Stats()
				twice, dir2 := throughDisk(t, spec, once)

				mf1, err := ReadManifest(dir1)
				if err != nil {
					t.Fatal(err)
				}
				mf2, err := ReadManifest(dir2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mf1, mf2) {
					t.Fatalf("a restored index snapshots differently:\n  source:   %+v\n  restored: %+v", mf1, mf2)
				}
				if twice.Len() != src.Len() || twice.Shards() != src.Shards() {
					t.Fatalf("restored shape %d/%d, want %d/%d",
						twice.Len(), twice.Shards(), src.Len(), src.Shards())
				}
				if got := twice.Stats(); got.Reads != cost.Reads || got.Writes != 0 {
					t.Fatalf("second restore cost Reads=%d Writes=%d, want %d and 0", got.Reads, got.Writes, cost.Reads)
				}
				qs := twice.GenQueries(8, confQSeed)
				diffAnswers(t, src.QueryBatch(qs, 5, 1), twice.QueryBatch(qs, 5, 1))
			})
		}
	}
}
