package core

// Trace phase names emitted by the two reductions (see em.TraceEvent and
// DESIGN.md §9 for the full taxonomy). Phases with outcome variants share
// a prefix so sinks can aggregate by prefix match: every "t2.round.*"
// event is one Theorem 2 round, whatever its outcome.
const (
	// Theorem 1 (WorstCase) phases.

	// PhaseT1Scan is the k ≥ n/2 full scan of D. Level -1, Arg = |D|.
	PhaseT1Scan = "t1.scan"
	// PhaseT1Level wraps one top-f chain level's query (§3.2). Level =
	// chain depth (0 = the core-set on D itself), Arg = |R_level|. The
	// level's probe/harvest/fallback spans nest one depth below it.
	PhaseT1Level = "t1.level"
	// PhaseT1ProbeOK / PhaseT1ProbeAbort are the cost-monitored
	// prioritized query of §3.2 step 1: OK means it terminated by itself
	// (|q(R)| within budget), Abort means the cost monitor cut it off
	// after limit+1 items. Arg = items streamed (at most limit+1; only
	// the ones the caller returns are kept).
	PhaseT1ProbeOK    = "t1.probe.ok"
	PhaseT1ProbeAbort = "t1.probe.abort"
	// PhaseT1Harvest is the above-pivot harvest plus its k-selection.
	// Arg = items streamed.
	PhaseT1Harvest = "t1.harvest"
	// PhaseT1Fallback is the exhaustive repair run after a self-check
	// caught a bad sample. Arg = the rank the failed step had to deliver
	// (f on the chain, k on the large-k ladder).
	PhaseT1Fallback = "t1.fallback"

	// Theorem 2 (Expected) phases.

	// PhaseT2Scan is the naive full scan of D (k beyond the ladder, or
	// ladder exhausted). Level -1, Arg = |D|.
	PhaseT2Scan = "t2.scan"
	// PhaseT2Round* wrap one ladder round (§4): Level = ladder rung j,
	// Arg = the round ordinal within the query (1-based). Outcomes:
	// Direct — step 1's capped probe completed, no sample needed;
	// Empty — q(R_j) had no sampled element, round skipped;
	// Fail — the τ-harvest aborted or came back too small (Lemma 3
	// failure); OK — the round succeeded and answered the query. The
	// round's probe/max/harvest spans nest one depth below it.
	PhaseT2RoundDirect = "t2.round.direct"
	PhaseT2RoundEmpty  = "t2.round.empty"
	PhaseT2RoundFail   = "t2.round.fail"
	PhaseT2RoundOK     = "t2.round.ok"
	// PhaseT2ProbeOK / PhaseT2ProbeAbort are step 1's cost-monitored
	// |q(D)| ≤ 4K_j test; Abort is the cost-monitor cutoff. Arg = items.
	PhaseT2ProbeOK    = "t2.probe.ok"
	PhaseT2ProbeAbort = "t2.probe.abort"
	// PhaseT2Max is step 2's max-structure probe on the sample R_j.
	PhaseT2Max = "t2.max"
	// PhaseT2HarvestOK / PhaseT2HarvestAbort are step 3's cost-monitored
	// harvest above τ. Arg = items streamed.
	PhaseT2HarvestOK    = "t2.harvest.ok"
	PhaseT2HarvestAbort = "t2.harvest.abort"
	// PhaseT2Rebuild is the dynamic path's full rebuild (shared-path
	// span; updates are exclusive). Arg = |D| at rebuild.
	PhaseT2Rebuild = "t2.rebuild"
)
