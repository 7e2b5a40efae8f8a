package train

import (
	"fmt"
	"slices"

	"swcaffe/internal/core"
	"swcaffe/internal/elastic"
	"swcaffe/internal/obs"
	"swcaffe/internal/tensor"
)

// traceInstant marks an elastic lifecycle event (checkpoint, restore,
// shrink, fault) on the cluster-level event lane at the current trace
// anchor. No-op without a configured tracer.
func (t *DistTrainer) traceInstant(name string, attrs ...obs.Attr) {
	tr := t.cfg.Tracer
	if tr == nil {
		return
	}
	pid := len(t.Workers)
	tr.NameProcess(pid, "collectives")
	tr.NameThread(pid, 1, "events")
	tr.Instant(pid, 1, name, t.traceTime, attrs...)
}

// Elastic fault tolerance (paper-scale robustness: at p = 1024 a
// node failure is the expected case). The protocol is
// checkpoint / detect / shrink / restore / continue:
//
//	ckpt := t.Checkpoint()            // every N steps
//	if r := recoverStep(t); r != nil {
//	    failed := victims(r, t)        // elastic.FailedRank + t.FailedRanks
//	    t.Shrink(failed...)            // world re-forms at p' < p
//	    t.Restore(ckpt)                // bits of the last checkpoint
//	    // continue: training at p' is bit-identical to a fresh
//	    // p'-trainer restored from the same checkpoint.
//	}
//
// Detection rides the machinery PR 3 built: a pass panic poisons the
// worker's stream (Stream.Poisoned), and a collective panic surfaces
// as simnet's rank-carrying NodePanic. Shrink drops the failed
// workers, re-ranks the survivors, re-forms the simnet communicator
// at p', and discards the collective engine so the next Step re-runs
// collective.SelectPlan for the new shape — hierarchical may
// legitimately fall back to flat when p' <= q — and re-lays the
// buckets on the new chunk partition. Re-sharding is free: shard
// addressing is a pure function of (rank, cfg.Nodes).

// blobOf captures one named tensor bit-exactly.
func blobOf(name string, tn *tensor.Tensor) elastic.Blob {
	return elastic.Blob{Name: name, Shape: [4]int{tn.N, tn.C, tn.H, tn.W}, Data: append([]float32(nil), tn.Data...)}
}

// Checkpoint captures the full trainer state from rank 0 — parameters
// (learnables and BN running statistics), solver momentum buffers and
// iteration counter, and the step counter — as a
// self-contained elastic.State. Replicas are identical by the SSGD
// invariant, so one rank's bits are the world's. Call it between
// Steps (the trainer is quiescent then, even after a recovered
// failure: the failure path joins every pass before re-panicking).
func (t *DistTrainer) Checkpoint() *elastic.State {
	w := t.replica(0)
	st := &elastic.State{
		Step:       t.iter,
		World:      len(t.Workers),
		SolverIter: w.Solver.Iter(),
	}
	for _, p := range w.Net.Params() {
		st.Params = append(st.Params, blobOf(p.Name, p.Data))
	}
	for _, p := range w.Net.LearnableParams() {
		if h := w.Solver.History(p); h != nil {
			st.History = append(st.History, blobOf("history/"+p.Name, h))
		}
	}
	t.traceInstant("checkpoint", obs.I64("step", int64(t.iter)), obs.I64("world", int64(len(t.Workers))))
	return st
}

// Restore loads a checkpoint into every model (each private replica,
// or each shared model): parameters, solver momentum and iteration,
// and the trainer's step counter. The world size need
// not match the checkpoint's — that is the point of
// shrink-and-continue — but the network architecture must. After
// Restore the trainer is bit-identical to one that trained to st.Step
// and never stopped.
func (t *DistTrainer) Restore(st *elastic.State) error {
	for _, w := range t.replicas() {
		if err := restoreReplica(w, st); err != nil {
			return err
		}
	}
	if t.shared() && t.Workers[0].state != nil {
		for _, m := range t.models {
			t.restoreRankStates(m)
		}
	}
	t.iter = st.Step
	t.traceInstant("restore", obs.I64("step", int64(st.Step)), obs.I64("ckpt_world", int64(st.World)))
	return nil
}

// restoreReplica loads the checkpoint's parameters, momentum and solver
// iteration into one model.
func restoreReplica(w *Worker, st *elastic.State) error {
	byName := make(map[string]*core.Param)
	for _, p := range w.Net.Params() {
		byName[p.Name] = p
	}
	for _, b := range st.Params {
		p, ok := byName[b.Name]
		if !ok {
			return fmt.Errorf("train: checkpoint param %q not in network", b.Name)
		}
		if p.Data.Len() != len(b.Data) {
			return fmt.Errorf("train: checkpoint param %q has %d elems, network wants %d", b.Name, len(b.Data), p.Data.Len())
		}
		copy(p.Data.Data, b.Data)
	}
	learn := make(map[string]*core.Param)
	for _, p := range w.Net.LearnableParams() {
		learn[p.Name] = p
	}
	for _, b := range st.History {
		name := b.Name[len("history/"):]
		p, ok := learn[name]
		if !ok {
			return fmt.Errorf("train: checkpoint history %q not a learnable param", b.Name)
		}
		h := w.Solver.EnsureHistory(p)
		if h.Len() != len(b.Data) {
			return fmt.Errorf("train: checkpoint history %q has %d elems, solver wants %d", b.Name, len(b.Data), h.Len())
		}
		copy(h.Data, b.Data)
	}
	w.Solver.SetIter(st.SolverIter)
	return nil
}

// restoreRankStates finishes a Restore for the ranks whose home is m, a
// shared model: its net now holds the checkpoint's non-learnable
// parameters — the running statistics a private replica would have had
// overwritten in place — and every such rank's saved state must
// restart from them while keeping what a checkpoint does not carry (a
// private replica's RNG cursors survive a Restore too).
func (t *DistTrainer) restoreRankStates(m *Worker) {
	net := m.Net
	var stats []*core.Param
	var restored [][]float32
	for _, p := range net.Params() {
		if !(p.LRMult > 0) {
			stats = append(stats, p)
			restored = append(restored, append([]float32(nil), p.Data.Data...))
		}
	}
	for _, w := range t.Workers {
		if w.home != m {
			continue
		}
		net.LoadReplicaState(w.state)
		for i, p := range stats {
			copy(p.Data.Data, restored[i])
		}
		net.SaveReplicaState(w.state)
	}
}

// FailedRanks reports the workers whose most recent pass panicked —
// those whose pass stream is poisoned. Call it after recovering from a
// failed Step and before Shrink or the next Step — both clear the
// poison. Ranks that died inside a collective do not poison their pass
// stream; identify those from the recovered panic value via
// elastic.FailedRank.
func (t *DistTrainer) FailedRanks() []int {
	var failed []int
	for i, w := range t.Workers {
		if w.stream.Poisoned() {
			failed = append(failed, i)
		}
	}
	return failed
}

// Shrink re-forms the world without the failed ranks: survivors are
// re-ranked densely in their old order, the failed ranks' simulated
// nodes are closed, a fresh simnet communicator is built at p', and
// the collective engine is closed, its views handed to the engine the
// next Step builds, which re-selects the plan (algorithm × bucket cap)
// for the new shape and re-lays the buckets on its chunk partition.
// The caller is expected to have recovered from the failed Step
// already — its failure path quiesced every in-flight pass — and to
// Restore a checkpoint afterwards, since the interrupted step left
// replicas mid-update.
func (t *DistTrainer) Shrink(failed ...int) error {
	if len(failed) == 0 {
		return fmt.Errorf("train: Shrink with no failed ranks")
	}
	p := len(t.Workers)
	dead := make(map[int]bool, len(failed))
	for _, r := range failed {
		if r < 0 || r >= p {
			return fmt.Errorf("train: Shrink rank %d out of range [0,%d)", r, p)
		}
		if dead[r] {
			return fmt.Errorf("train: Shrink rank %d listed twice", r)
		}
		dead[r] = true
	}
	if len(failed) >= p {
		return fmt.Errorf("train: Shrink would leave no survivors (p=%d, %d failed)", p, len(failed))
	}

	survivors := make([]*Worker, 0, p-len(failed))
	for r, w := range t.Workers {
		if dead[r] {
			// Idempotent: the node may be closed again by Cluster.Close
			// when the trainer winds down.
			w.node.Close()
			continue
		}
		survivors = append(survivors, w)
	}
	for i, w := range survivors {
		w.Rank = i
	}
	t.Workers = survivors
	t.cfg.Nodes = len(survivors)
	// A shared model none of the survivors runs on leaves the pool:
	// every model drains one rank's reduced gradient, so there may be no
	// more models than ranks. The others keep their ranks.
	if t.shared() {
		homes := t.models[:0]
		for _, m := range t.models {
			if slices.ContainsFunc(survivors, func(w *Worker) bool { return w.home == m }) {
				homes = append(homes, m)
			}
		}
		t.models = homes
	}

	// Fresh communicator and engine at p': bucket alignment and the
	// plan selection both depend on p.
	t.newCommunicator()
	if eng := t.engine; eng != nil {
		if t.retiredBytes == nil {
			t.retiredBytes = make(map[string]int64)
		}
		t.retiredBytes[eng.StrategyName()] += eng.CommittedBytes()
		eng.Close()
		t.engine = nil
	}
	t.losses = make([]float32, len(survivors))
	// The priced read model depends on the world size: it re-resolves
	// at p' — including a re-run of the stripe advisor — on the next
	// Step.
	t.ioReady = false
	t.traceInstant("shrink", obs.I64("world", int64(len(survivors))), obs.I64("failed", int64(len(failed))))
	return nil
}

// flushHook builds the collective engine's fault-injection hook (nil
// when no fault plan is configured, keeping the hot path untouched).
// It runs on rank goroutines inside a flush, which Step joins before
// it moves t.iter.
func (t *DistTrainer) flushHook() func(rank, bucket int) {
	fp := t.cfg.Faults
	if fp == nil {
		return nil
	}
	return func(rank, bucket int) {
		fp.Check(rank, t.iter, elastic.PhaseFlush, bucket)
	}
}
