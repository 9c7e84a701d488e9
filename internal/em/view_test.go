package em

import (
	"sync"
	"testing"
)

func TestQueryViewIsolationAndMerge(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	tr.ResetCounters()
	tr.DropCache()

	v := tr.BeginQuery()
	tr.Read(v, id)
	tr.Read(v, id) // second touch hits the view's private cache
	tr.ScanCost(v, tr.B())
	if got := tr.Stats(); got.Reads != 0 || got.Hits != 0 {
		t.Fatalf("in-flight view leaked into tracker stats: %+v", got)
	}
	st := v.End()
	if st.Reads != 2 || st.Hits != 1 || st.Writes != 0 {
		t.Fatalf("view stats = %+v, want Reads=2 Hits=1 Writes=0", st)
	}
	if got := tr.Stats(); got.Reads != 2 || got.Hits != 1 {
		t.Fatalf("merged tracker stats = %+v, want Reads=2 Hits=1", got)
	}
	if again := v.End(); again != st {
		t.Fatalf("second End returned %+v, want %+v", again, st)
	}
}

func TestQueryViewStartsCold(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	tr.ResetCounters()

	// The shared cache is warm (Alloc touched id), but a view must not be.
	v := tr.BeginQuery()
	tr.Read(v, id)
	if st := v.End(); st.Reads != 1 || st.Hits != 0 {
		t.Fatalf("view stats = %+v, want one cold read", st)
	}
	// The shared path still sees its warm cache.
	tr.ResetCounters()
	tr.Read(nil, id)
	if got := tr.Stats(); got.Hits != 1 || got.Reads != 0 {
		t.Fatalf("shared stats = %+v, want one hit", got)
	}
}

func TestNilViewChargesSharedPathWhileViewOpen(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	ids := []BlockID{tr.Alloc(), tr.Alloc()}
	tr.ResetCounters()
	tr.DropCache()

	// An open view must not capture charges that were not given to it.
	v := tr.BeginQuery()
	tr.Read(nil, ids[0])
	tr.ScanCost(nil, tr.B())
	tr.Read(v, ids[1])
	if got := tr.Stats(); got.Reads != 2 || got.Hits != 0 {
		t.Fatalf("shared stats = %+v, want Reads=2 from the nil-view charges", got)
	}
	st := v.End()
	if st.Reads != 1 || st.Hits != 0 || st.Writes != 0 {
		t.Fatalf("view stats = %+v, want only its own Read", st)
	}
	if got := tr.Stats(); got.Reads != 3 {
		t.Fatalf("merged stats = %+v, want Reads=3", got)
	}
}

func TestQueryViewDeterministicUnderConcurrency(t *testing.T) {
	tr := NewTracker(Config{B: 8, MemBlocks: 2})
	base := tr.AllocRun(16)
	tr.ResetCounters()

	query := func() Stats {
		v := tr.BeginQuery()
		for i := 0; i < 16; i++ {
			tr.Read(v, base+BlockID(i%4))
		}
		tr.PathCost(v, 9)
		tr.ScanCost(v, 20)
		return v.End()
	}

	want := query()
	const workers = 8
	got := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = query()
		}(w)
	}
	wg.Wait()
	sum := Stats{}
	for w, st := range got {
		if st.Reads != want.Reads || st.Writes != want.Writes || st.Hits != want.Hits {
			t.Fatalf("worker %d stats %+v differ from serial %+v", w, st, want)
		}
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.Hits += st.Hits
	}
	total := tr.Stats()
	if total.Reads != sum.Reads+want.Reads || total.Hits != sum.Hits+want.Hits {
		t.Fatalf("merged totals %+v != sum of per-query deltas %+v (+ serial %+v)", total, sum, want)
	}
}

func TestViewsOpenAtOnceStayIsolated(t *testing.T) {
	tr := NewTracker(Config{B: 8, MemBlocks: 2})
	a, b := tr.Alloc(), tr.Alloc()
	tr.ResetCounters()

	// Two views open on one goroutine: each keeps its own cold cache and
	// counters, whatever the interleaving of their charges.
	outer := tr.BeginQuery()
	tr.Read(outer, a)
	inner := tr.BeginQuery()
	tr.Read(inner, a) // cold in inner even though outer holds a
	tr.Read(outer, a) // hit in outer
	tr.PathCost(inner, 1)
	tr.Read(inner, b)
	in := inner.End()
	tr.Read(outer, b)
	out := outer.End()
	if in.Reads != 3 || in.Hits != 0 {
		t.Fatalf("inner view stats = %+v, want Reads=3 Hits=0", in)
	}
	if out.Reads != 2 || out.Hits != 1 {
		t.Fatalf("outer view stats = %+v, want Reads=2 Hits=1", out)
	}
	if got := tr.Stats(); got.Reads != 5 || got.Hits != 1 {
		t.Fatalf("merged stats = %+v, want Reads=5 Hits=1", got)
	}
}

func TestViewHandedToSpawnedGoroutine(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	ids := []BlockID{tr.Alloc(), tr.Alloc(), tr.Alloc()}
	tr.ResetCounters()
	tr.DropCache()

	// A query that fans its work out to goroutines it spawns hands them
	// its view; their charges land in it, not on the shared path.
	v := tr.BeginQuery()
	tr.Read(v, ids[0])
	for _, id := range ids {
		var wg sync.WaitGroup
		wg.Add(1)
		go func(id BlockID) {
			defer wg.Done()
			tr.Read(v, id)
			tr.ScanCost(v, 1)
		}(id)
		wg.Wait()
	}
	if got := tr.Stats(); got.Reads != 0 || got.Hits != 0 {
		t.Fatalf("spawned goroutines charged the shared path: %+v", got)
	}
	st := v.End()
	if st.Reads != 6 || st.Hits != 1 {
		t.Fatalf("view stats = %+v, want Reads=6 (3 cold + 3 scans) Hits=1", st)
	}
}

func TestAllocPanicsInsideView(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	v := tr.BeginQuery()
	defer v.End()
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc inside a query view did not panic")
		}
	}()
	tr.Alloc()
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestAllocPanicsWhileViewOpenElsewhere(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	before := tr.Stats()
	opened := make(chan *QueryView)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := tr.BeginQuery()
		opened <- v
		<-release
		v.End()
	}()
	<-opened
	if !panics(func() { tr.Alloc() }) {
		t.Error("Alloc while another goroutine holds a view did not panic")
	}
	if !panics(func() { tr.AllocRun(2) }) {
		t.Error("AllocRun while another goroutine holds a view did not panic")
	}
	if !panics(func() { tr.Free(id) }) {
		t.Error("Free while another goroutine holds a view did not panic")
	}
	if !panics(func() { tr.ReleaseBlocks(1) }) {
		t.Error("ReleaseBlocks while another goroutine holds a view did not panic")
	}
	if !panics(func() { tr.SortCost(1000) }) {
		t.Error("SortCost while another goroutine holds a view did not panic")
	}
	if st := tr.Stats(); st != before {
		t.Errorf("refused mutations changed the tracker: %+v, want %+v", st, before)
	}
	// A checkpoint runs under read access beside in-flight queries.
	if panics(func() { tr.SnapshotCost(1 << 10) }) {
		t.Error("SnapshotCost panicked while a view is open")
	}
	close(release)
	<-done
	if panics(func() { tr.Alloc() }) {
		t.Error("Alloc panicked after every view ended")
	}
}

func TestForeignViewPanics(t *testing.T) {
	a, b := NewTracker(DefaultConfig()), NewTracker(DefaultConfig())
	id := b.Alloc()
	v := a.BeginQuery()
	defer v.End()
	if !panics(func() { b.Read(v, id) }) {
		t.Error("Read with another tracker's view did not panic")
	}
	if !panics(func() { b.PathCost(v, 3) }) {
		t.Error("PathCost with another tracker's view did not panic")
	}
	if st := v.Stats(); st.Reads != 0 {
		t.Fatalf("foreign charges reached the view: %+v", st)
	}
}
