package topk

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"topk/internal/core"
	"topk/internal/dynamic"
	"topk/internal/obs"
	"topk/internal/snap"
)

// This file is the persistence layer above the internal/snap codec: it
// serializes an engine's logical state — not its in-memory structures —
// and restores by re-running the deterministic build over that state
// while the EM tracker charges only a sequential read of the snapshot
// (em.Tracker.RestoreAccounting). That is exactly the warm-start claim
// the paper's cost model supports: a built index comes back in
// O(size/B) I/Os instead of O(build). DESIGN.md §12 documents the
// format, the compatibility policy, and the cost model.
//
// Three engine kinds are persisted (snap.KindStatic/Overlay/Native):
//
//   - static: the source item set in construction order; rebuilding it
//     with the same options and seed yields a bit-identical structure.
//   - overlay: the logarithmic-method overlay's logical state — each
//     level's exact build batch, its tombstoned weights, the mutable
//     tail, and the update counters. Levels are serialized rather than
//     replayed because the overlay's shape depends on the entire update
//     history: replaying n updates costs O(n · log n · Build(n)/n) I/Os
//     and is precisely the rebuild the snapshot exists to avoid.
//   - native: the Theorem 2 dynamic structure's live set in internal
//     order; the reduction is exact, so a rebuild over that set answers
//     every query identically even though the sample ladder is drawn
//     fresh from the recorded seed.
//
// Sharded indexes persist as a directory: one snapshot file per shard
// plus a JSON manifest — which makes a shard the unit of shipping (copy
// one file, restore it anywhere) and resharding a pure snapshot-to-
// snapshot transform (ProblemSpec.Reshard, cmd/topk-snap convert).

// reductionFromName parses a Reduction's String() name, the form stored
// in snapshot headers and manifests.
func reductionFromName(name string) (Reduction, error) {
	for _, r := range AllReductions() {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("topk: unknown reduction %q in snapshot", name)
}

// shardPolicyFromName parses a ShardPolicy's String() name.
func shardPolicyFromName(name string) (ShardPolicy, error) {
	for _, p := range []ShardPolicy{ShardByWeight, ShardRoundRobin} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("topk: unknown shard policy %q in snapshot manifest", name)
}

// gobItems encodes an item batch as one self-contained gob blob:
// geometry, weight, and the user payload all survive together.
func gobItems[It any](items []It) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(items); err != nil {
		return nil, fmt.Errorf("topk: encoding %d items: %w", len(items), err)
	}
	return buf.Bytes(), nil
}

// ungobItems decodes an item batch written by gobItems.
func ungobItems[It any](p []byte) ([]It, error) {
	var items []It
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&items); err != nil {
		return nil, fmt.Errorf("topk: decoding item batch: %w", err)
	}
	return items, nil
}

// kind classifies the engine for the snapshot header, returning the
// overlay when that is what the engine sits on.
func (e *engine[Q, V, It]) kind() (uint8, *dynamic.Overlay[Q, V]) {
	switch d := e.dyn.(type) {
	case nil:
		return snap.KindStatic, nil
	case *dynamic.Overlay[Q, V]:
		return snap.KindOverlay, d
	default:
		return snap.KindNative, nil
	}
}

// Snapshot writes the engine's versioned snapshot stream to w and
// charges the tracker the O(size/B) sequential write cost. Safe
// concurrently with queries, not with Insert or Delete.
func (e *engine[Q, V, It]) Snapshot(w io.Writer) error {
	kind, ov := e.kind()
	sw := snap.NewWriter(w)
	if err := sw.WriteHeader(snap.Header{
		Problem:   e.p.name,
		Reduction: e.opts.reduction.String(),
		Kind:      kind,
		Items:     uint64(e.n),
		Dim:       uint16(e.p.dim),
	}); err != nil {
		return err
	}

	cfg := sw.Begin(snap.SecConfig)
	cfg.U64(uint64(e.opts.blockSize))
	cfg.U64(uint64(e.opts.memBlocks))
	cfg.U64(e.opts.seed)
	if e.opts.updates {
		cfg.U8(1)
	} else {
		cfg.U8(0)
	}
	if err := sw.End(cfg); err != nil {
		return err
	}

	emitItems := func(typ uint16, items []It, wrap func(*snap.Section)) error {
		blob, err := gobItems(items)
		if err != nil {
			return err
		}
		s := sw.Begin(typ)
		if wrap != nil {
			wrap(s)
		}
		s.Bytes(blob)
		return sw.End(s)
	}

	switch kind {
	case snap.KindStatic:
		if err := emitItems(snap.SecItems, e.src, nil); err != nil {
			return err
		}
	case snap.KindNative:
		if err := emitItems(snap.SecItems, e.Items(), nil); err != nil {
			return err
		}
	case snap.KindOverlay:
		st := ov.ExportState()
		cs := sw.Begin(snap.SecOverlayCounters)
		cs.U64(uint64(st.TailCap))
		cs.F64(st.DeadFrac)
		cs.I64(st.Counters.Inserts)
		cs.I64(st.Counters.Deletes)
		cs.I64(st.Counters.Flushes)
		cs.I64(st.Counters.Rebuilds)
		cs.I64(st.Counters.BuiltItems)
		if err := sw.End(cs); err != nil {
			return err
		}
		// The policy section is emitted only for non-default policies, so
		// a logarithmic overlay's snapshot stays byte-identical to the
		// version-1 stream; readers treat its absence as "logarithmic".
		if st.PolicyID != "" && st.PolicyID != dynamic.PolicyLogarithmic.ID() {
			ps := sw.Begin(snap.SecOverlayPolicy)
			ps.Str(st.PolicyID)
			ps.I64(st.Counters.PartialRebuilds)
			ps.U64(uint64(len(st.Tiers)))
			for _, t := range st.Tiers {
				ps.U64(uint64(t.Slot))
				ps.U64(uint64(t.Tier))
			}
			if err := sw.End(ps); err != nil {
				return err
			}
		}
		for _, lvl := range st.Levels {
			items := make([]It, len(lvl.Items))
			for i, ci := range lvl.Items {
				items[i] = e.wrap(ci)
			}
			err := emitItems(snap.SecOverlayLevel, items, func(s *snap.Section) {
				s.U64(uint64(lvl.Slot))
				s.F64s(lvl.Dead)
			})
			if err != nil {
				return err
			}
		}
		tail := make([]It, len(st.Tail))
		for i, ci := range st.Tail {
			tail[i] = e.wrap(ci)
		}
		if err := emitItems(snap.SecOverlayTail, tail, nil); err != nil {
			return err
		}
	}

	if err := sw.Close(); err != nil {
		return err
	}
	e.tracker.SnapshotCost(sw.Bytes())
	return nil
}

// countingReader counts bytes consumed from the snapshot stream, the
// size the restore accounting charges a sequential read for.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// overlayLevelBlob is one decoded SecOverlayLevel section.
type overlayLevelBlob[It any] struct {
	slot  int
	dead  []float64
	items []It
}

// restoreEngine decodes one engine snapshot stream and reconstructs the
// engine. mk builds the problem descriptor from the decoded header (so
// dimension-parameterized problems can size themselves from Header.Dim);
// opts may layer runtime options (observability, shard labels) on top,
// but the structural options — reduction, block size, memory, seed,
// updates — always come from the snapshot. The reconstruction runs under
// em.Tracker.RestoreAccounting, so the restored engine's Stats() show
// the warm-start cost: ceil(snapshotBytes/8/B) sequential reads.
func restoreEngine[Q, V, It any](
	mk func(snap.Header) (problem[Q, V, It], error),
	rd io.Reader,
	opts []Option,
) (*engine[Q, V, It], error) {
	cr := &countingReader{r: rd}
	sr, err := snap.NewReader(cr)
	if err != nil {
		return nil, err
	}
	h, err := sr.ReadHeader()
	if err != nil {
		return nil, err
	}
	p, err := mk(h)
	if err != nil {
		return nil, err
	}
	if h.Problem != p.name {
		return nil, fmt.Errorf("topk: snapshot holds problem %q, want %q", h.Problem, p.name)
	}
	red, err := reductionFromName(h.Reduction)
	if err != nil {
		return nil, err
	}

	// Decode every section into plain values before reconstructing, so
	// the reconstruction under RestoreAccounting touches no input bytes.
	var (
		haveConfig, haveItems, haveCounters, haveTail, havePolicy bool

		cfgBlock, cfgMem int
		cfgSeed          uint64
		cfgUpdates       bool

		srcItems []It

		tailCap  int
		deadFrac float64
		counters dynamic.Counters
		levels   []overlayLevelBlob[It]
		tail     []It
		policyID string
		tiers    []dynamic.TierRef
	)
	for {
		typ, sec, err := sr.Next()
		if err != nil {
			return nil, err
		}
		if typ == snap.SecEnd {
			break
		}
		switch typ {
		case snap.SecConfig:
			if haveConfig {
				return nil, fmt.Errorf("topk: snapshot repeats its config section")
			}
			cfgBlock = int(sec.RU64())
			cfgMem = int(sec.RU64())
			cfgSeed = sec.RU64()
			cfgUpdates = sec.RU8() == 1
			haveConfig = true
		case snap.SecItems:
			if haveItems {
				return nil, fmt.Errorf("topk: snapshot repeats its item section")
			}
			if srcItems, err = ungobItems[It](sec.RBytes()); err != nil {
				return nil, err
			}
			haveItems = true
		case snap.SecOverlayCounters:
			if haveCounters {
				return nil, fmt.Errorf("topk: snapshot repeats its overlay counter section")
			}
			tailCap = int(sec.RU64())
			deadFrac = sec.RF64()
			counters.Inserts = sec.RI64()
			counters.Deletes = sec.RI64()
			counters.Flushes = sec.RI64()
			counters.Rebuilds = sec.RI64()
			counters.BuiltItems = sec.RI64()
			haveCounters = true
		case snap.SecOverlayLevel:
			lvl := overlayLevelBlob[It]{slot: int(sec.RU64()), dead: sec.RF64s()}
			if lvl.items, err = ungobItems[It](sec.RBytes()); err != nil {
				return nil, err
			}
			levels = append(levels, lvl)
		case snap.SecOverlayTail:
			if haveTail {
				return nil, fmt.Errorf("topk: snapshot repeats its overlay tail section")
			}
			if tail, err = ungobItems[It](sec.RBytes()); err != nil {
				return nil, err
			}
			haveTail = true
		case snap.SecOverlayPolicy:
			if havePolicy {
				return nil, fmt.Errorf("topk: snapshot repeats its overlay policy section")
			}
			policyID = sec.RStr()
			counters.PartialRebuilds = sec.RI64()
			n := sec.RCount(16)
			tiers = make([]dynamic.TierRef, n)
			for i := range tiers {
				tiers[i].Slot = int(sec.RU64())
				tiers[i].Tier = int(sec.RU64())
			}
			havePolicy = true
		default:
			return nil, fmt.Errorf("topk: snapshot contains unknown section type %d", typ)
		}
		if err := sec.Err(); err != nil {
			return nil, fmt.Errorf("topk: snapshot section %d: %w", typ, err)
		}
	}
	if !haveConfig {
		return nil, fmt.Errorf("topk: snapshot is missing its config section")
	}
	if cfgBlock < 1 || cfgMem < 2 {
		return nil, fmt.Errorf("topk: snapshot config B=%d, M/B=%d violates the EM model (need B ≥ 1, M/B ≥ 2)", cfgBlock, cfgMem)
	}

	o := applyOptions(opts)
	o.reduction = red
	o.blockSize, o.memBlocks, o.seed, o.updates = cfgBlock, cfgMem, cfgSeed, cfgUpdates
	// The maintenance policy is structural state: it comes from the
	// snapshot (absence of a policy section means the default), never
	// from the caller's options.
	mp, err := maintenancePolicyByID(policyID)
	if err != nil {
		return nil, err
	}
	o.maintPol = mp
	if havePolicy && h.Kind != snap.KindOverlay {
		return nil, fmt.Errorf("topk: snapshot carries an overlay policy section but is not an overlay snapshot")
	}

	// The header's kind must agree with what this configuration builds.
	wantKind := snap.KindStatic
	switch {
	case red == Expected && p.dynPri != nil:
		wantKind = snap.KindNative
	case cfgUpdates:
		wantKind = snap.KindOverlay
	}
	if h.Kind != wantKind {
		return nil, fmt.Errorf("topk: snapshot kind %d inconsistent with reduction %s and its config (want kind %d)", h.Kind, red, wantKind)
	}

	e := &engine[Q, V, It]{p: p, opts: o, tracker: o.newTracker()}
	reconstruct := func() error {
		if h.Kind != snap.KindOverlay {
			if !haveItems {
				return fmt.Errorf("topk: snapshot is missing its item section")
			}
			return e.init(srcItems)
		}
		if !haveCounters || !haveTail {
			return fmt.Errorf("topk: overlay snapshot is missing its counter or tail section")
		}
		return e.initOverlay(levels, tail, tailCap, deadFrac, counters, policyID, tiers)
	}
	if err := e.tracker.RestoreAccounting(cr.n, reconstruct); err != nil {
		return nil, err
	}
	if e.n != int(h.Items) {
		return nil, fmt.Errorf("topk: snapshot header declares %d items, reconstruction holds %d", h.Items, e.n)
	}
	return e, nil
}

// initOverlay reconstructs an overlay engine from decoded overlay
// sections: validates every item through the construction gate, rebuilds
// the payload map from the live ones, and hands the level batches to
// dynamic.Restore, which re-runs the deterministic substructure builds.
func (e *engine[Q, V, It]) initOverlay(
	levels []overlayLevelBlob[It],
	tail []It,
	tailCap int,
	deadFrac float64,
	counters dynamic.Counters,
	policyID string,
	tiers []dynamic.TierRef,
) error {
	p, o, tracker := e.p, e.opts, e.tracker
	e.data = make(map[float64]It)

	state := dynamic.State[V]{
		TailCap: tailCap, DeadFrac: deadFrac, Counters: counters,
		PolicyID: policyID, Tiers: tiers,
	}
	addLive := func(it It, where string) error {
		if err := e.validateItem(it); err != nil {
			return fmt.Errorf("topk: snapshot %s: %w", where, err)
		}
		w := p.weight(it)
		if _, dup := e.data[w]; dup {
			return fmt.Errorf("topk: snapshot %s: duplicate weight %v", where, w)
		}
		e.data[w] = it
		return nil
	}
	for _, lvl := range levels {
		dead := make(map[float64]struct{}, len(lvl.dead))
		for _, w := range lvl.dead {
			dead[w] = struct{}{}
		}
		ls := dynamic.LevelState[V]{Slot: lvl.slot, Dead: lvl.dead, Items: make([]core.Item[V], len(lvl.items))}
		for i, it := range lvl.items {
			if err := e.validateItem(it); err != nil {
				return fmt.Errorf("topk: snapshot level %d item %d: %w", lvl.slot, i, err)
			}
			if _, gone := dead[p.weight(it)]; !gone {
				if err := addLive(it, fmt.Sprintf("level %d", lvl.slot)); err != nil {
					return err
				}
			}
			ls.Items[i] = p.toCore(it)
		}
		state.Levels = append(state.Levels, ls)
	}
	state.Tail = make([]core.Item[V], len(tail))
	for i, it := range tail {
		if err := addLive(it, "tail"); err != nil {
			return err
		}
		state.Tail[i] = p.toCore(it)
	}
	e.n = len(e.data)

	ov, err := dynamic.Restore(state, p.match, func(sub []core.Item[V]) (core.TopK[Q, V], error) {
		return buildTopK(sub, p.match, p.pri(tracker), p.max(tracker), p.lambda, o, tracker)
	}, dynamic.Options{Tracker: tracker})
	if err != nil {
		return err
	}
	e.topk, e.dyn = ov, ov
	e.pri = core.PrioritizedOf(e.topk)
	e.ob = newIndexObs(p.name, o, tracker)
	e.ob.observeShape(e.n, e.dyn)
	return nil
}

// ---- directory layout: manifest + per-shard files ---------------------

// ManifestName is the JSON manifest file naming a snapshot directory's
// shard files.
const ManifestName = "MANIFEST.json"

// Manifest describes one snapshot directory: the problem and build it
// captures, its partitioning, and the per-shard snapshot files with
// their sizes and checksums. It is the unit cmd/topk-snap inspects and
// the shard-shipping contract: moving a shard between directories is
// copying its file and updating two manifests.
type Manifest struct {
	FormatVersion uint16 `json:"format_version"`
	Problem       string `json:"problem"`
	Reduction     string `json:"reduction"`
	Dim           int    `json:"dim,omitempty"`
	// Partitioned distinguishes a sharded index (even with one shard)
	// from a plain engine, so a restore rebuilds the same wrapper.
	Partitioned bool   `json:"partitioned"`
	Shards      int    `json:"shards"`
	Policy      string `json:"policy,omitempty"`
	RR          int    `json:"rr_cursor,omitempty"`
	// Maintenance names the overlay's structural-maintenance policy when
	// it is not the default; empty means logarithmic (and is what every
	// version-1 manifest reads as).
	Maintenance string         `json:"maintenance,omitempty"`
	Items       int            `json:"items"`
	Files       []ManifestFile `json:"files"`
}

// ManifestFile is one shard's snapshot file.
type ManifestFile struct {
	Name  string `json:"name"`
	Shard int    `json:"shard"`
	Items int    `json:"items"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// ReadManifest loads and sanity-checks a snapshot directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, fmt.Errorf("topk: reading snapshot manifest: %w", err)
	}
	var mf Manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return Manifest{}, fmt.Errorf("topk: parsing snapshot manifest: %w", err)
	}
	if mf.FormatVersion < 1 || mf.FormatVersion > snap.Version {
		return Manifest{}, fmt.Errorf("topk: manifest format version %d, this build reads versions 1 through %d", mf.FormatVersion, snap.Version)
	}
	if mf.Shards < 1 || len(mf.Files) != mf.Shards {
		return Manifest{}, fmt.Errorf("topk: manifest lists %d files for %d shards", len(mf.Files), mf.Shards)
	}
	return mf, nil
}

// writeSnapFile streams one shard snapshot into dir, returning the
// manifest entry (size and CRC-32 computed over the written bytes).
func writeSnapFile(dir, name string, shard, items int, emit func(io.Writer) error) (ManifestFile, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return ManifestFile{}, err
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(f, crc)}
	if err := emit(cw); err != nil {
		f.Close()
		return ManifestFile{}, err
	}
	if err := f.Close(); err != nil {
		return ManifestFile{}, err
	}
	return ManifestFile{Name: name, Shard: shard, Items: items, Bytes: cw.n, CRC32: crc.Sum32()}, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.snap", i) }

func writeManifest(dir string, mf Manifest) error {
	raw, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(raw, '\n'), 0o644)
}

// maintenanceID names the engine's non-default maintenance policy for
// the manifest; empty for logarithmic overlays and for static or native
// builds, so pre-policy manifests stay unchanged.
func (e *engine[Q, V, It]) maintenanceID() string {
	if _, ov := e.kind(); ov != nil {
		if id := ov.Policy().ID(); id != dynamic.PolicyLogarithmic.ID() {
			return id
		}
	}
	return ""
}

// snapDir persists a single engine as a one-file snapshot directory.
func (e *engine[Q, V, It]) snapDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mf := Manifest{
		FormatVersion: snap.Version,
		Problem:       e.p.name,
		Reduction:     e.opts.reduction.String(),
		Dim:           e.p.dim,
		Shards:        1,
		Maintenance:   e.maintenanceID(),
		Items:         e.n,
	}
	entry, err := writeSnapFile(dir, shardFileName(0), 0, e.n, e.Snapshot)
	if err != nil {
		return err
	}
	mf.Files = []ManifestFile{entry}
	return writeManifest(dir, mf)
}

// snapDir persists the partitioned index as a directory: one snapshot
// file per shard plus a manifest. Each shard's file restores on its own
// on any machine — the shipping primitive behind LoadShard. Safe
// concurrently with queries, not with Insert or Delete.
func (s *sharded[Q, V, It]) snapDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mf := Manifest{
		FormatVersion: snap.Version,
		Problem:       s.p.name,
		Reduction:     s.opts.reduction.String(),
		Dim:           s.p.dim,
		Partitioned:   true,
		Shards:        len(s.shards),
		Policy:        s.opts.policy.String(),
		RR:            s.rr,
		Maintenance:   s.shards[0].maintenanceID(),
		Items:         s.Len(),
	}
	for i, e := range s.shards {
		entry, err := writeSnapFile(dir, shardFileName(i), i, e.Len(), e.Snapshot)
		if err != nil {
			return err
		}
		mf.Files = append(mf.Files, entry)
	}
	return writeManifest(dir, mf)
}

// restoreEngineFile restores one engine from a shard file, verifying the
// manifest's size and checksum before decoding.
func restoreEngineFile[Q, V, It any](
	mk func(snap.Header) (problem[Q, V, It], error),
	dir string,
	entry ManifestFile,
	opts []Option,
) (*engine[Q, V, It], error) {
	raw, err := os.ReadFile(filepath.Join(dir, entry.Name))
	if err != nil {
		return nil, fmt.Errorf("topk: reading shard file: %w", err)
	}
	if int64(len(raw)) != entry.Bytes {
		return nil, fmt.Errorf("topk: shard file %s is %d bytes, manifest says %d", entry.Name, len(raw), entry.Bytes)
	}
	if got := crc32.ChecksumIEEE(raw); got != entry.CRC32 {
		return nil, fmt.Errorf("topk: shard file %s checksum %08x, manifest says %08x: snapshot is corrupt", entry.Name, got, entry.CRC32)
	}
	e, err := restoreEngine(mk, bytes.NewReader(raw), opts)
	if err != nil {
		return nil, fmt.Errorf("topk: shard file %s: %w", entry.Name, err)
	}
	if e.n != entry.Items {
		return nil, fmt.Errorf("topk: shard file %s restored %d items, manifest says %d", entry.Name, e.n, entry.Items)
	}
	return e, nil
}

// restoreSharded reassembles a sharded index from a partitioned
// snapshot directory: each shard file restores into its own engine, the
// owner map is rebuilt from the restored weights, and the policy and
// round-robin cursor come back from the manifest.
func restoreSharded[Q, V, It any](
	mk func(snap.Header) (problem[Q, V, It], error),
	dir string,
	mf Manifest,
	opts []Option,
) (*sharded[Q, V, It], error) {
	pol, err := shardPolicyFromName(mf.Policy)
	if err != nil {
		return nil, err
	}
	if mf.RR < 0 || mf.RR >= mf.Shards {
		return nil, fmt.Errorf("topk: manifest round-robin cursor %d out of range [0, %d)", mf.RR, mf.Shards)
	}
	base := applyOptions(opts)
	s := &sharded[Q, V, It]{owner: make(map[float64]int), rr: mf.RR}
	if base.metrics {
		s.reg = obs.NewRegistry()
	}
	s.shards = make([]*engine[Q, V, It], mf.Shards)
	for _, entry := range mf.Files {
		if entry.Shard < 0 || entry.Shard >= mf.Shards {
			return nil, fmt.Errorf("topk: manifest file %s names shard %d of %d", entry.Name, entry.Shard, mf.Shards)
		}
		if s.shards[entry.Shard] != nil {
			return nil, fmt.Errorf("topk: manifest lists shard %d twice", entry.Shard)
		}
		shOpts := make([]Option, len(opts), len(opts)+2)
		copy(shOpts, opts)
		shOpts = append(shOpts, WithShardPolicy(pol), withShardObs(s.reg, strconv.Itoa(entry.Shard)))
		e, err := restoreEngineFile(mk, dir, entry, shOpts)
		if err != nil {
			return nil, err
		}
		if e.opts.reduction.String() != mf.Reduction {
			return nil, fmt.Errorf("topk: shard %d snapshot uses reduction %s, manifest says %s", entry.Shard, e.opts.reduction, mf.Reduction)
		}
		if got := e.maintenanceID(); got != mf.Maintenance {
			return nil, fmt.Errorf("topk: shard %d snapshot uses maintenance policy %q, manifest says %q", entry.Shard, e.opts.maintPol, mf.Maintenance)
		}
		for w := range e.data {
			if prev, dup := s.owner[w]; dup {
				return nil, fmt.Errorf("topk: weight %v is live in shards %d and %d", w, prev, entry.Shard)
			}
			s.owner[w] = entry.Shard
		}
		s.shards[entry.Shard] = e
	}
	s.p = s.shards[0].p
	s.opts = s.shards[0].opts
	s.opts.policy = pol
	if s.reg != nil {
		s.reg.NewGauge("topk_shards", "Shards in the partitioned index.",
			obs.Label{Key: "index", Value: s.p.name}).Set(int64(mf.Shards))
	}
	return s, nil
}

// restoreServedEngine restores a snapshot directory into whichever
// wrapper it was saved from — a plain engine or a sharded partition —
// behind the servedEngine surface the registry adapters consume.
func restoreServedEngine[Q, V, It any](
	mk func(snap.Header) (problem[Q, V, It], error),
	dir string,
	opts []Option,
) (servedEngine[Q, It], int, error) {
	mf, err := ReadManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	if !mf.Partitioned {
		e, err := restoreEngineFile(mk, dir, mf.Files[0], opts)
		if err != nil {
			return nil, 0, err
		}
		return e, 1, nil
	}
	s, err := restoreSharded(mk, dir, mf, opts)
	if err != nil {
		return nil, 0, err
	}
	return s, mf.Shards, nil
}

// restoreShardEngine restores exactly one shard of a snapshot directory
// as a standalone engine — the replica-bootstrap primitive. Only the
// manifest and that shard's file need to be present: a node that owns
// two of sixteen shards ships two files, not the whole snapshot.
func restoreShardEngine[Q, V, It any](
	mk func(snap.Header) (problem[Q, V, It], error),
	dir string,
	shard int,
	opts []Option,
) (servedEngine[Q, It], error) {
	mf, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, entry := range mf.Files {
		if entry.Shard == shard {
			return restoreEngineFile(mk, dir, entry, opts)
		}
	}
	return nil, fmt.Errorf("topk: snapshot %s has no shard %d (manifest lists %d shards)", dir, shard, mf.Shards)
}

// optionsOf reconstructs the Option list matching a restored build's
// structural configuration, for rebuilding the index at a different
// shard count.
func optionsOf(o Options) []Option {
	opts := []Option{
		WithReduction(o.reduction),
		WithBlockSize(o.blockSize),
		WithMemBlocks(o.memBlocks),
		WithSeed(o.seed),
		WithShardPolicy(o.policy),
		WithMaintenancePolicy(o.maintPol),
	}
	if o.updates {
		opts = append(opts, WithUpdates())
	}
	return opts
}

// reshardSnapshot rewrites a snapshot directory at a different shard
// count: restore, repartition the live items under the original build
// options, snapshot to dstDir. The answers are untouched — only the
// partitioning changes.
func reshardSnapshot[Q, V, It any](
	mk func(snap.Header) (problem[Q, V, It], error),
	srcDir, dstDir string,
	shards int,
) error {
	eng, _, err := restoreServedEngine(mk, srcDir, nil)
	if err != nil {
		return err
	}
	var (
		p problem[Q, V, It]
		o Options
	)
	switch t := eng.(type) {
	case *engine[Q, V, It]:
		p, o = t.p, t.opts
	case *sharded[Q, V, It]:
		p, o = t.p, t.opts
	default:
		return fmt.Errorf("topk: unexpected restored engine %T", eng)
	}
	s, err := newSharded(p, eng.Items(), shards, optionsOf(o))
	if err != nil {
		return err
	}
	return s.snapDir(dstDir)
}

// LoadSnapshot restores any snapshot directory: the manifest names the
// problem, the registry supplies its spec, and the spec's Restore hook
// rebuilds the index behind the type-erased Served surface. opts may add
// runtime options (WithMetrics, WithTracing, WithSlowQueryLog); the
// structural configuration always comes from the snapshot.
func LoadSnapshot(dir string, opts ...Option) (Served, error) {
	mf, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	spec, ok := ProblemByName(mf.Problem)
	if !ok {
		return nil, fmt.Errorf("topk: snapshot holds unknown problem %q (known: %v)", mf.Problem, ProblemNames())
	}
	return spec.Restore(dir, opts...)
}

// LoadShard restores a single shard of a snapshot directory as a
// standalone one-shard index behind the Served surface. This is how a
// cluster node bootstraps: it fetches the manifest plus only the shard
// files it owns and serves each as an independent index, while the
// coordinator's Lemma 2 merge reassembles exact global answers. The
// shard file's size and checksum are verified against the manifest
// before decoding, same as a full restore.
func LoadShard(dir string, shard int, opts ...Option) (Served, error) {
	mf, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	spec, ok := ProblemByName(mf.Problem)
	if !ok {
		return nil, fmt.Errorf("topk: snapshot holds unknown problem %q (known: %v)", mf.Problem, ProblemNames())
	}
	return spec.RestoreShard(dir, shard, opts...)
}
