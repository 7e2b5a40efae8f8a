package allreduce

// Fault-injection seam of the hierarchical schedule, for tests only.
// The flat algorithms are killable from the collective engine's
// per-bucket flush hook, but the hierarchical schedule has internal
// structure worth failing *inside*: a rank dying between the
// intra-supernode reduce-scatter and the leader RHD leaves different
// peer sets (its group's tournament partners vs. the other supernodes'
// leaders) waiting on different channels. The phase hook lets tests
// kill a rank at each boundary and prove the surrounding Run teardown
// quiesces every case. Being process-global, it is no way to observe
// a run: a trace passes PhaseClocks with the call.

// PhaseHook observes a rank crossing a phase boundary: the rank, its
// simulated clock on arrival, and the boundary. It is backend-neutral —
// both interpreters fire it from the schedule's phase rounds.
type PhaseHook func(rank int, clock float64, phase HierPhase)

// hierPhaseHook runs on every rank at each phase boundary of the
// hierarchical schedule, on either backend; the nil fast path keeps
// the production schedule untouched. Both backends join every rank of
// a run before it returns, failed or not, so a test that sets the hook
// between runs races no rank.
var hierPhaseHook PhaseHook

// SetHierPhaseHook installs (or, with nil, removes) the hierarchical
// phase hook and returns the previous one so tests can restore it. It
// is the tests' fault-injection seam: no program links it, which the
// module root's reachability test asserts.
func SetHierPhaseHook(h PhaseHook) (prev PhaseHook) {
	prev, hierPhaseHook = hierPhaseHook, h
	return prev
}

func hierPhase(rank int, clock float64, phase HierPhase) {
	if hierPhaseHook != nil {
		hierPhaseHook(rank, clock, phase)
	}
}
