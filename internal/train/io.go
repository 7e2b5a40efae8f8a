package train

import (
	"swcaffe/internal/dataset"
	"swcaffe/internal/obs"
	"swcaffe/internal/pario"
)

// The modeled input-pipeline stage (paper Sec. V-B), composed into
// StepStats symmetrically with exposed communication: every Step reads
// one per-rank shard through the striped disk-array model at the true
// contention point — p concurrent readers in the cluster trainer — and
// the modeled double-buffered prefetch overlaps the *next* batch's read
// with the current step, so only max(0, read − hide window) is exposed.
// It is a price only: LoadShards loads the shards themselves when the
// step asks for them.
// Both backends (goroutine and DES) charge the identical analytic read
// time: the I/O stage is a pure function of (storage layout, readers,
// bytes), never of host scheduling, which is what lets the DES <->
// goroutine hex-identity goldens extend to I/O-enabled runs.

// ioTraceLane is the tid of the cluster-level I/O track in traced
// runs; the collective engine's bucket-flush lane owns tid 0 of the
// same synthetic pid.
const ioTraceLane = 1

// ensureIO lazily resolves cfg.IO into the priced read model: fills
// the storage defaults, fixes the reader count to the world size, runs
// the stripe-count advisor when asked, and precomputes the per-step
// concurrent read time. Called by Step (through composeIO) after
// ensureTimeline, so the advisor's hide window — the priced compute
// leg of one step — is available. Compute is a conservative floor of
// the hide window (realized steps only add communication time, which
// only adds room to hide reads behind), so the advisor may stripe one
// notch wider than strictly needed but never under-stripes.
func (t *DistTrainer) ensureIO() {
	if t.cfg.IO == nil || t.ioReady {
		return
	}
	io := t.cfg.IO
	t.ioStorage = io.storage()
	t.ioReaders = len(t.Workers)
	t.ioBytes = io.BatchBytes
	if t.ioBytes <= 0 {
		t.ioBytes = t.Workers[0].Data.Bytes()
	}
	t.ioPlan, t.ioCands = nil, nil
	if io.AutoStripe {
		pick, cands := pario.SelectStripe(t.ioStorage, t.ioReaders, t.ioBytes, t.computeEnd)
		t.ioStorage.StripeCount = pick.StripeCount
		t.ioPlan, t.ioCands = &pick, cands
	}
	t.ioReadTime = t.ioStorage.ReadTime(t.ioReaders, t.ioBytes)
	t.ioReady = true
}

// AttachInput does nothing: LoadShards loads every shard directly, and
// Step prices the read when DistConfig.IO is set. It remains for the
// callers in bench/wl_dist_train.go, its last ones.
func (t *DistTrainer) AttachInput(ds dataset.Dataset) {}

// storage resolves the storage defaults: a zero Arrays field selects
// pario.DefaultTaihuLight at StripeCount, single-split when that is
// zero too.
func (io *IOConfig) storage() pario.Config {
	s := io.Storage
	if s.Arrays == 0 {
		stripes := s.StripeCount
		if stripes == 0 {
			stripes = 1
		}
		s = pario.DefaultTaihuLight(stripes)
	}
	return s
}

// composeIO folds the priced I/O stage into LastStep (assembled by
// Step without I/O), accumulates the trainer-level totals, and
// emits the per-batch read span on the tracer's io lane. Must run
// before Step advances the trace anchor past the step.
func (t *DistTrainer) composeIO(step int) {
	if t.cfg.IO == nil {
		return
	}
	t.ensureIO()
	// The first read is fully exposed: the modeled prefetch has nothing
	// to hide a cold start behind. Afterwards the previous step hides all
	// but the remainder; homogeneous steps make this step's own
	// no-I/O makespan the previous one's, which keeps the charge a pure
	// function of modeled quantities shared by both backends.
	read, exposed := t.ioReadTime, t.ioReadTime
	if step > 0 {
		exposed = pario.ExposedTime(read, t.LastStep.StepTime)
	}
	t.LastStep.IO = read
	t.LastStep.ExposedIO = exposed
	t.LastStep.StepTime += exposed
	t.IOTime += read
	t.ExposedIOTime += exposed
	if tr := t.cfg.Tracer; tr != nil {
		// The read of batch step+1 launches at this step's start and
		// runs concurrently with it in the modeled prefetch; the span
		// shows how far it reaches into (or past) the step.
		pid := len(t.Workers)
		tr.NameThread(pid, ioTraceLane, "io")
		tr.Span(pid, ioTraceLane, "read", t.traceTime, t.traceTime+read,
			obs.I64("bytes", t.ioBytes),
			obs.I64("stripes", int64(t.ioStorage.StripeCount)),
			obs.I64("readers", int64(t.ioReaders)),
			obs.F64("exposed_us", exposed*1e6))
	}
}

// IOPlan returns the stripe advisor's pick and full candidate sweep
// (nil unless DistConfig.IO.AutoStripe resolved, i.e. after the first
// Step or an ExplainPlan).
func (t *DistTrainer) IOPlan() (*pario.StripePlan, []pario.StripePlan) {
	return t.ioPlan, t.ioCands
}

// IOStorage returns the resolved storage layout (advisor pick applied)
// and the reader count / byte volume each step's read is priced at.
// Zero values before the first Step or without cfg.IO.
func (t *DistTrainer) IOStorage() (cfg pario.Config, readers int, bytes int64) {
	return t.ioStorage, t.ioReaders, t.ioBytes
}
