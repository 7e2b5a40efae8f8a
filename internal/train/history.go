package train

import (
	"fmt"
	"io"

	"swcaffe/internal/obs"
)

// DefaultStepHistory is the StepHistory ring size when
// DistConfig.HistorySize is unset: enough to show a trend without
// growing with run length.
const DefaultStepHistory = 64

// Step-level metrics, registered once against the default registry so
// the per-step increments are plain atomic/mutex operations with no
// lookups or allocations on the hot path.
var (
	metSteps     = obs.Default().Counter("train.steps")
	metExposedUS = obs.Default().FloatCounter("train.exposed_us")
)

// recordStep pushes LastStep into the bounded history ring and updates
// the step metrics. Ring slots own their bucket arrays and are reused
// in place (append into the slot's retained capacity), so after the
// first lap the ring allocates nothing.
func (t *DistTrainer) recordStep() {
	if t.cfg.Tracer != nil {
		// Advance the trace anchor to the next step's pass start on the
		// node timelines (stream chaining starts pass k at k·compute).
		t.traceTime += t.LastStep.Compute
	}
	metSteps.Inc()
	metExposedUS.Add(t.LastStep.Exposed * 1e6)

	if t.history == nil {
		n := t.cfg.HistorySize
		if n <= 0 {
			n = DefaultStepHistory
		}
		t.history = make([]StepStats, n)
	}
	slot := &t.history[t.histPos]
	buckets := append(slot.Buckets[:0], t.LastStep.Buckets...)
	*slot = t.LastStep
	slot.Buckets = buckets
	t.histPos = (t.histPos + 1) % len(t.history)
	if t.histLen < len(t.history) {
		t.histLen++
	}
}

// StepHistory appends the retained steps — oldest first, at most
// DistConfig.HistorySize of them — to dst and returns it. The entries'
// Buckets alias the ring's storage: read them before the next Step, or
// copy. LastStep is always the final entry once at least one Step ran.
func (t *DistTrainer) StepHistory(dst []StepStats) []StepStats {
	dst = dst[:0]
	if t.histLen == 0 {
		return dst
	}
	start := (t.histPos - t.histLen + len(t.history)) % len(t.history)
	for i := 0; i < t.histLen; i++ {
		dst = append(dst, t.history[(start+i)%len(t.history)])
	}
	return dst
}

// Launches reports the total stream launches submitted across the
// workers' simulated nodes — the value swtrain exports as the
// swnode.launches gauge.
func (t *DistTrainer) Launches() int { return t.nodes.Launches() }

// ExplainPlan writes a human-readable audit of the collective engine's
// plan: the selector's per-algorithm candidate sweep (when the plan
// was auto-selected), the active algorithm and bucket cap, and — after
// at least one Step — the per-bucket priced vs. realized costs and
// exposed contributions of the most recent step. This is the report
// behind swtrain -explain-plan.
func (t *DistTrainer) ExplainPlan(w io.Writer) error {
	t.ensureEngine()
	eng := t.engine
	if cands := eng.Candidates(); cands != nil {
		fmt.Fprintf(w, "plan selector (algorithm x bucket cap, minimizing modeled exposed comm):\n")
		chosen := eng.Plan()
		for _, c := range cands {
			mark := " "
			if chosen != nil && c.Algorithm == chosen.Algorithm {
				mark = "*"
			}
			fmt.Fprintf(w, "  %s %-28s cap %8d B   exposed %10.1f us\n",
				mark, c.Algorithm, c.BucketBytes, c.Exposed*1e6)
		}
	} else {
		fmt.Fprintf(w, "plan fixed by configuration (no selector sweep)\n")
	}
	fmt.Fprintf(w, "active: %s, bucket cap %d B, %d buckets over %d elems\n",
		eng.StrategyName(), eng.BucketBytes(), len(eng.Buckets()), eng.TotalElems())
	if len(t.LastStep.Buckets) > 0 {
		fmt.Fprintf(w, "last step (priced = selector cost model, realized = simnet makespan):\n")
		fmt.Fprintf(w, "  %-3s %10s %10s %9s %11s %11s %11s %8s\n",
			"b", "lo", "hi", "bytes", "priced_us", "realized_us", "exposed_us", "xbytes")
		for _, b := range t.LastStep.Buckets {
			fmt.Fprintf(w, "  %-3d %10d %10d %9d %11.1f %11.1f %11.1f %8d\n",
				b.Index, b.Lo, b.Hi, b.Bytes, b.Priced*1e6, b.Comm*1e6, b.Exposed*1e6, b.CrossBytes)
		}
	} else {
		fmt.Fprintf(w, "no committed step yet — run at least one Step for realized costs\n")
	}
	if t.cfg.IO != nil {
		t.ensureIO()
		if t.ioCands != nil {
			fmt.Fprintf(w, "stripe advisor (exposed read vs priced compute window %.1f us):\n", t.computeEnd*1e6)
			for _, c := range t.ioCands {
				mark := " "
				if t.ioPlan != nil && c.StripeCount == t.ioPlan.StripeCount {
					mark = "*"
				}
				fmt.Fprintf(w, "  %s stripes %3d   read %10.1f us   exposed %10.1f us\n",
					mark, c.StripeCount, c.ReadTime*1e6, c.Exposed*1e6)
			}
		} else {
			fmt.Fprintf(w, "stripe count fixed by configuration (no advisor sweep)\n")
		}
		fmt.Fprintf(w, "active io: %d stripes, %d B/shard, %d readers, read %.1f us/step (last step exposed %.1f us)\n",
			t.ioStorage.StripeCount, t.ioBytes, t.ioReaders, t.ioReadTime*1e6, t.LastStep.ExposedIO*1e6)
	}
	return nil
}
