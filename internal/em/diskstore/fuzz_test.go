package diskstore_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"topk/internal/em"
	"topk/internal/em/diskstore"
)

// FuzzBlockStore oracle-diffs the disk store against em.MemStore: two
// trackers — one over each store — execute the same random
// alloc/free/read/write/drop-cache schedule in lockstep, and after
// every operation the logical Stats must agree; at the end the physical
// StoreStats operation counts must agree, no store error may have been
// recorded on either side, and every live block's content must read
// back byte-identical (and canonical) from both media.
func FuzzBlockStore(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 1, 2, 2, 0, 3, 0, 5, 0, 2, 1})
	f.Add(byte(1), []byte{1, 3, 6, 0, 4, 0, 0, 0, 2, 5, 3, 2, 5, 0, 2, 9})
	f.Add(byte(0), []byte{1, 7, 6, 1, 4, 2, 1, 2, 6, 0, 2, 3, 2, 4, 2, 5, 0, 0, 3, 1})
	f.Add(byte(1), bytes.Repeat([]byte{0, 0, 2, 1, 4, 0}, 12))

	f.Fuzz(func(t *testing.T, policyByte byte, data []byte) {
		const b = 16
		cfg := em.Config{B: b, MemBlocks: 3, Policy: em.PolicyLRU}
		if policyByte&1 == 1 {
			cfg.Policy = em.PolicyTinyLFU
		}
		pb := em.PayloadBytesFor(b)

		memStore := em.NewMemStore(pb)
		memT, err := em.NewTrackerWithStore(cfg, memStore)
		if err != nil {
			t.Fatal(err)
		}
		diskStore, err := diskstore.Open(filepath.Join(t.TempDir(), "fuzz.tkbs"), pb)
		if err != nil {
			t.Fatal(err)
		}
		diskT, err := em.NewTrackerWithStore(cfg, diskStore)
		if err != nil {
			t.Fatal(err)
		}
		defer diskT.Close()

		type run struct {
			start em.BlockID
			n     int
			dead  bool
		}
		var live []em.BlockID
		var runs []run

		step := 0
		for i := 0; i+1 < len(data) && step < 256; i, step = i+2, step+1 {
			op, arg := data[i]%9, int(data[i+1])
			switch op {
			case 0: // Alloc
				a, b := memT.Alloc(), diskT.Alloc()
				if a != b {
					t.Fatalf("step %d: Alloc diverged: mem %d, disk %d", step, a, b)
				}
				live = append(live, a)
				runs = append(runs, run{start: a, n: 1})
			case 1: // AllocRun
				n := 1 + arg%4
				a, b := memT.AllocRun(n), diskT.AllocRun(n)
				if a != b {
					t.Fatalf("step %d: AllocRun diverged: mem %d, disk %d", step, a, b)
				}
				for j := 0; j < n; j++ {
					live = append(live, a+em.BlockID(j))
				}
				runs = append(runs, run{start: a, n: n})
			case 2: // Read
				if len(live) == 0 {
					continue
				}
				id := live[arg%len(live)]
				memT.Read(nil, id)
				diskT.Read(nil, id)
			case 3: // Write
				if len(live) == 0 {
					continue
				}
				id := live[arg%len(live)]
				memT.Write(nil, id)
				diskT.Write(nil, id)
			case 4: // Free
				if len(live) == 0 {
					continue
				}
				k := arg % len(live)
				id := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				for j := range runs {
					if id >= runs[j].start && id < runs[j].start+em.BlockID(runs[j].n) {
						runs[j].dead = true
					}
				}
				memT.Free(id)
				diskT.Free(id)
			case 5: // DropCache
				memT.DropCache()
				diskT.DropCache()
			case 6: // ReadRun over a fully-live run
				alive := runs[:0:0]
				for _, r := range runs {
					if !r.dead {
						alive = append(alive, r)
					}
				}
				if len(alive) == 0 {
					continue
				}
				r := alive[arg%len(alive)]
				memT.ReadRun(nil, r.start, r.n)
				diskT.ReadRun(nil, r.start, r.n)
			case 7: // ScanCost: cost-level charge, physical stand-in reads
				memT.ScanCost(nil, 1+arg)
				diskT.ScanCost(nil, 1+arg)
			case 8: // PathCost: cost-level charge, physical stand-in reads
				memT.PathCost(nil, 1+arg)
				diskT.PathCost(nil, 1+arg)
			}
			if ms, ds := memT.Stats(), diskT.Stats(); ms != ds {
				t.Fatalf("step %d (op %d): logical stats diverged: mem %+v, disk %+v", step, op, ms, ds)
			}
		}

		if err := memT.StoreErr(); err != nil {
			t.Fatalf("mem tracker recorded store error: %v", err)
		}
		if err := diskT.StoreErr(); err != nil {
			t.Fatalf("disk tracker recorded store error: %v", err)
		}
		ms, ds := memT.StoreStats(), diskT.StoreStats()
		if ms.Reads != ds.Reads || ms.Writes != ds.Writes || ms.Frees != ds.Frees {
			t.Fatalf("physical op counts diverged: mem %+v, disk %+v", ms, ds)
		}

		// Content diff: every live block reads back identical from both
		// media, and both match the canonical payload.
		bm, bd := make([]byte, pb), make([]byte, pb)
		for _, id := range live {
			if err := memStore.ReadBlock(id, bm); err != nil {
				t.Fatalf("oracle read of block %d: %v", id, err)
			}
			if err := diskStore.ReadBlock(id, bd); err != nil {
				t.Fatalf("disk read of block %d: %v", id, err)
			}
			if !bytes.Equal(bm, bd) {
				t.Fatalf("block %d content diverged between mem and disk", id)
			}
			if err := em.VerifyPayload(id, bd); err != nil {
				t.Fatalf("block %d not canonical: %v", id, err)
			}
		}
	})
}
