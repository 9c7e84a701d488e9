package obs

import "sync"

// ClusterMetrics is the metric bundle of the cluster coordinator
// (internal/cluster): hedge and degradation counters, per-replica
// request/error counters, and the live shard-request latency and I/O
// summaries the coordinator's hedge delay and admission budget are
// derived from. Everything is registered on one Registry so a single
// /metrics scrape shows the whole serving discipline.
type ClusterMetrics struct {
	reg *Registry

	// Hedged counts shard requests that launched a hedge (second
	// replica raced after the hedge delay); HedgeWins counts the subset
	// where the hedge answered first.
	Hedged    *Counter
	HedgeWins *Counter
	// Degraded counts queries the coordinator served as the top-1
	// fallback prefix; Unavailable counts queries where some shard's
	// whole replica group failed to answer.
	Degraded    *Counter
	Unavailable *Counter

	// ShardLatency observes per-shard-request wall latency in
	// nanoseconds (exported as seconds); ShardIOs observes the simulated
	// I/Os each shard request reported. Their live p99s drive the hedge
	// delay and the admission budget respectively.
	ShardLatency *LogHistogram
	ShardIOs     *LogHistogram

	// HedgeDelayUS and AdmissionBudget expose the currently derived
	// control values (microseconds and I/Os).
	HedgeDelayUS    *Gauge
	AdmissionBudget *Gauge

	mu          sync.Mutex
	replicaReqs map[string]*Counter
	replicaErrs map[string]*Counter
}

// NewClusterMetrics registers the cluster metric bundle on reg.
func NewClusterMetrics(reg *Registry) *ClusterMetrics {
	return &ClusterMetrics{
		reg: reg,
		Hedged: reg.NewCounter("topk_hedged_requests_total",
			"Shard requests that launched a hedged second attempt after the hedge delay."),
		HedgeWins: reg.NewCounter("topk_hedge_wins_total",
			"Hedged shard requests where the hedge answered before the primary."),
		Degraded: reg.NewCounter("topk_degraded_queries_total",
			"Queries served as the provably-correct top-1 fallback prefix."),
		Unavailable: reg.NewCounter("topk_replica_unavailable_total",
			"Queries failed because some shard's whole replica group did not answer."),
		ShardLatency: reg.NewLogHistogram("topk_cluster_shard_latency_seconds",
			"Wall latency of successful per-shard replica requests.", 1e9),
		ShardIOs: reg.NewLogHistogram("topk_cluster_shard_ios",
			"Simulated I/Os reported per shard request (sum over the request's queries).", 1),
		HedgeDelayUS: reg.NewGauge("topk_hedge_delay_us",
			"Hedge delay currently in force, microseconds (p99-derived unless pinned)."),
		AdmissionBudget: reg.NewGauge("topk_admission_budget_ios",
			"Per-query per-shard I/O budget currently derived by admission control (0 = unlimited)."),
		replicaReqs: make(map[string]*Counter),
		replicaErrs: make(map[string]*Counter),
	}
}

// Registry returns the registry the bundle is registered on.
func (m *ClusterMetrics) Registry() *Registry { return m.reg }

// replicaCounter lazily registers one node-labelled counter per replica;
// the node set is only known as traffic arrives.
func (m *ClusterMetrics) replicaCounter(byNode map[string]*Counter, name, help, node string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := byNode[node]
	if !ok {
		c = m.reg.NewCounter(name, help, Label{Key: "node", Value: node})
		byNode[node] = c
	}
	return c
}

// ReplicaRequest counts one shard request dispatched to node.
func (m *ClusterMetrics) ReplicaRequest(node string) {
	m.replicaCounter(m.replicaReqs, "topk_replica_requests_total",
		"Shard requests dispatched per replica node.", node).Inc()
}

// ReplicaError counts one failed shard request against node.
func (m *ClusterMetrics) ReplicaError(node string) {
	m.replicaCounter(m.replicaErrs, "topk_replica_errors_total",
		"Failed shard requests per replica node.", node).Inc()
}
