package em

import (
	"errors"
	"testing"
	"time"
)

// capture runs f and returns the *AbortError it panics with (nil if it
// returns normally). Any other panic value is re-raised.
func capture(f func()) (abort *AbortError) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if abort, ok = r.(*AbortError); !ok {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

func TestBudgetAbortsMidQuery(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	ids := make([]BlockID, 10)
	for i := range ids {
		ids[i] = tr.Alloc()
	}
	tr.ResetCounters()

	v := tr.BeginQuery()
	v.SetLimits(3, time.Time{})
	abort := capture(func() {
		for _, id := range ids {
			tr.Read(v, id)
		}
	})
	if abort == nil {
		t.Fatal("10 cold reads under a 3-I/O budget did not abort")
	}
	if abort.Reason != AbortBudget {
		t.Fatalf("abort reason = %v, want AbortBudget", abort.Reason)
	}
	if abort.Budget != 3 {
		t.Fatalf("abort.Budget = %d, want 3", abort.Budget)
	}
	if abort.IOs < 3 || abort.IOs > 4 {
		t.Fatalf("abort.IOs = %d, want the budget boundary (3..4)", abort.IOs)
	}
	// The view still ends cleanly and merges what was actually charged.
	st := v.End()
	if st.Reads != abort.IOs {
		t.Fatalf("view merged %d reads, abort reported %d", st.Reads, abort.IOs)
	}
}

func TestBudgetCountsWritesAndBulkReads(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	tr.ResetCounters()

	v := tr.BeginQuery()
	v.SetLimits(2, time.Time{})
	if ab := capture(func() { tr.Write(v, id) }); ab != nil {
		t.Fatalf("first write aborted under budget 2: %+v", ab)
	}
	if ab := capture(func() { tr.ScanCost(v, 10*tr.B()) }); ab == nil {
		t.Fatal("bulk scan past the budget did not abort")
	} else if ab.Reason != AbortBudget {
		t.Fatalf("abort reason = %v, want AbortBudget", ab.Reason)
	}
	v.End()
}

func TestExpiredDeadlineAbortsOnFirstCharge(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	id := tr.Alloc()
	tr.ResetCounters()

	v := tr.BeginQuery()
	v.SetLimits(0, time.Now().Add(-time.Second))
	abort := capture(func() { tr.Read(v, id) })
	if abort == nil {
		t.Fatal("charge against an expired deadline did not abort")
	}
	if abort.Reason != AbortDeadline {
		t.Fatalf("abort reason = %v, want AbortDeadline", abort.Reason)
	}
	v.End()
}

func TestGenerousLimitsNeverAbort(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	ids := make([]BlockID, 50)
	for i := range ids {
		ids[i] = tr.Alloc()
	}
	tr.ResetCounters()

	v := tr.BeginQuery()
	v.SetLimits(1_000_000, time.Now().Add(time.Hour))
	if ab := capture(func() {
		for _, id := range ids {
			tr.Read(v, id)
			tr.Read(v, id) // hits must not charge against the budget
		}
	}); ab != nil {
		t.Fatalf("generous limits aborted: %+v", ab)
	}
	st := v.End()
	if st.Reads != 50 || st.Hits != 50 {
		t.Fatalf("stats = %+v, want Reads=50 Hits=50", st)
	}
}

func TestUnlimitedViewIgnoresLimitsMachinery(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	ids := make([]BlockID, 100)
	for i := range ids {
		ids[i] = tr.Alloc()
	}
	tr.ResetCounters()

	v := tr.BeginQuery()
	if ab := capture(func() {
		for _, id := range ids {
			tr.Read(v, id)
		}
	}); ab != nil {
		t.Fatalf("unlimited view aborted: %+v", ab)
	}
	v.End()
}

func TestAbortErrorMessage(t *testing.T) {
	e := &AbortError{Reason: AbortBudget, IOs: 12, Budget: 10}
	if e.Error() == "" {
		t.Fatal("empty Error()")
	}
	var target *AbortError
	if !errors.As(error(e), &target) {
		t.Fatal("errors.As failed on *AbortError")
	}
	if AbortBudget.String() == AbortDeadline.String() {
		t.Fatal("abort reasons render identically")
	}
}
