package em

import (
	"fmt"
	"time"
)

// AbortReason says which request-lifecycle limit a query blew.
type AbortReason int

const (
	// AbortBudget: the view's charged I/Os exceeded its I/O budget.
	AbortBudget AbortReason = iota
	// AbortDeadline: the wall clock passed the view's deadline.
	AbortDeadline
)

func (r AbortReason) String() string {
	switch r {
	case AbortBudget:
		return "budget"
	case AbortDeadline:
		return "deadline"
	default:
		return "unknown"
	}
}

// AbortError is the panic value raised from a charge path when a limited
// QueryView exceeds its I/O budget or wall-clock deadline. Queries are
// read-only, so unwinding mid-walk leaves every structure intact; the
// batch runner recovers the sentinel at the query boundary, ends the view
// (its partial counters remain exact), and maps the reason onto a typed
// result outcome. It deliberately travels as a panic rather than an error
// return so the un-limited hot path stays branch-minimal: no charge site
// needs an error result.
type AbortError struct {
	Reason AbortReason
	IOs    int64 // I/Os charged to the view when it aborted
	Budget int64 // the I/O budget, when Reason is AbortBudget
}

func (e *AbortError) Error() string {
	if e.Reason == AbortBudget {
		return fmt.Sprintf("em: query aborted: %d I/Os exceeded budget %d", e.IOs, e.Budget)
	}
	return fmt.Sprintf("em: query aborted: deadline exceeded after %d I/Os", e.IOs)
}

// deadlineCheckEvery is how many charge events pass between time.Now calls
// on a deadline-limited view: the clock read is amortized over a batch of
// block touches so the per-charge cost stays one predictable branch.
const deadlineCheckEvery = 32

// SetLimits arms the view's request-lifecycle guards: budget > 0 caps the
// total I/Os (reads+writes) the query may charge, and a non-zero deadline
// caps its wall-clock time. A zero/zero call leaves the view unlimited —
// the default — in which case the charge paths pay only a single bool
// test. Exceeding a limit panics with *AbortError from the charge site.
//
// The deadline is tested on the first charge and every deadlineCheckEvery
// charges after that, so an already-expired deadline aborts on the first
// block touch rather than after a full check interval.
func (v *QueryView) SetLimits(budget int64, deadline time.Time) {
	v.budget = budget
	v.deadline = deadline
	v.limited = budget > 0 || !deadline.IsZero()
	// Schedule the first deadline check on the first charge.
	v.untilCheck = 1
}

// checkLimits enforces SetLimits on every charge path (read, write,
// readRun, and the cost-level PathCost/ScanCost routing). Cache hits count
// as charge events for deadline polling but not against the I/O budget:
// the budget is an I/O bound, the deadline a time bound.
func (v *QueryView) checkLimits() {
	if !v.limited {
		return
	}
	ios := v.reads + v.writes
	if v.budget > 0 && ios > v.budget {
		panic(&AbortError{Reason: AbortBudget, IOs: ios, Budget: v.budget})
	}
	if !v.deadline.IsZero() {
		v.untilCheck--
		if v.untilCheck <= 0 {
			v.untilCheck = deadlineCheckEvery
			if time.Now().After(v.deadline) {
				panic(&AbortError{Reason: AbortDeadline, IOs: ios})
			}
		}
	}
}

// addReads routes a cost-level read charge (PathCost, ScanCost) through
// the view: counter, then limit check.
func (v *QueryView) addReads(n int64) {
	v.reads += n
	v.checkLimits()
}
