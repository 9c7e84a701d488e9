package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"topk/internal/em"
)

// SlowQueryLog writes a formatted phase trace for every query whose
// I/O count reaches a threshold, and keeps the most recent entries in a
// ring buffer for live inspection (e.g. a /debug/slow endpoint).
type SlowQueryLog struct {
	mu     sync.Mutex
	w      io.Writer // may be nil: ring-buffer only
	minIOs int64
	ring   []string
	next   int
	total  int64
}

// NewSlowQueryLog builds a log that records queries with IOs() >=
// minIOs, writing each entry to w (nil for ring-buffer only) and
// retaining the last keep entries.
func NewSlowQueryLog(w io.Writer, minIOs int64, keep int) *SlowQueryLog {
	if keep < 1 {
		keep = 1
	}
	return &SlowQueryLog{w: w, minIOs: minIOs, ring: make([]string, 0, keep)}
}

// MinIOs returns the logging threshold.
func (l *SlowQueryLog) MinIOs() int64 { return l.minIOs }

// Total returns how many slow queries have been recorded.
func (l *SlowQueryLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// SlowMeta carries the request-lifecycle context of one slow query into
// its log entry: the budget and deadline it ran under and how it ended.
type SlowMeta struct {
	Outcome     string        // "ok", "degraded", "budget_exceeded", "deadline_exceeded"
	Budget      int64         // I/O budget in force; 0 = unbudgeted
	Slack       time.Duration // deadline minus completion time (negative = blown)
	HasDeadline bool          // Slack is meaningful only when true
}

// Record logs one slow query. query is a human-readable description of
// the query (already formatted by the caller, so the hot path never
// pays for formatting unless the threshold fired). Concurrent calls are
// safe and write whole entries to w one at a time, so w need not be safe
// for concurrent use. A panic in w leaves the log usable: the lock is
// released on the way out.
func (l *SlowQueryLog) Record(index, query string, d time.Duration, st em.Stats, events []em.TraceEvent, meta SlowMeta) {
	var b strings.Builder
	fmt.Fprintf(&b, "slow query index=%s ios=%d reads=%d writes=%d hits=%d latency=%s",
		index, st.IOs(), st.Reads, st.Writes, st.Hits, d)
	if meta.Outcome == "" {
		meta.Outcome = "ok"
	}
	fmt.Fprintf(&b, " outcome=%s", meta.Outcome)
	if meta.Budget > 0 {
		fmt.Fprintf(&b, " budget=%d", meta.Budget)
	}
	if meta.HasDeadline {
		fmt.Fprintf(&b, " slack=%s", meta.Slack)
	}
	fmt.Fprintf(&b, " query=%s\n", query)
	FormatTrace(&b, events)
	entry := b.String()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, entry)
	} else {
		l.ring[l.next] = entry
		l.next = (l.next + 1) % cap(l.ring)
	}
	if l.w != nil {
		io.WriteString(l.w, entry)
	}
}

// Recent returns the retained entries, oldest first.
func (l *SlowQueryLog) Recent() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.ring))
	for i := 0; i < len(l.ring); i++ {
		out = append(out, l.ring[(l.next+i)%len(l.ring)])
	}
	return out
}

// FormatTrace writes one line per span event, indented by nesting
// depth, with the event's EM cost deltas.
func FormatTrace(w io.Writer, events []em.TraceEvent) {
	for _, ev := range events {
		indent := strings.Repeat("  ", ev.Depth+1)
		level := ""
		if ev.Level >= 0 {
			level = fmt.Sprintf(" level=%d", ev.Level)
		}
		fmt.Fprintf(w, "%s%s%s arg=%d reads=%d writes=%d hits=%d\n",
			indent, ev.Phase, level, ev.Arg, ev.Reads, ev.Writes, ev.Hits)
	}
}
