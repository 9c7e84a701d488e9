// Package obs is the repository's zero-dependency observability layer:
// an atomic metrics registry with Prometheus text exposition, the
// per-query observation of an index's metric bundle, a collector that
// counts the maintenance spans an em.TraceSink delivers, and a
// slow-query log that captures the full phase trace of expensive
// queries.
//
// The paper's bounds are statements about counted I/Os per query phase
// (Theorem 1's cost-monitored probes over nested core-set levels,
// Theorem 2's rounds), so the metrics here are phrased in the same
// vocabulary: I/Os per query, rounds per query, cache hit rate, overlay
// shape. Everything is stdlib-only and safe for concurrent use; metric
// updates are single atomic operations so they can sit on query paths.
// Every distribution is a LogHistogram, exported as a summary.
package obs

import "sync/atomic"

// A Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus counter contract).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is an integer-valued metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
