package elastic

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Deterministic fault injection. A FaultPlan names exactly where a
// rank dies — "rank r, step s, phase p" — and the trainer threads
// Check calls through every phase boundary, so each failure path is a
// reproducible test instead of a flake. A matched Check panics with
// an Injected value carrying the coordinates; the panic then travels
// the same recovery machinery a real kernel or collective panic
// would (launch-event poisoning, the join of a failed step or run),
// which is the point: the injected fault exercises the production
// failure path, not a parallel test-only one.

// Phase names one point in a training step where a fault can fire.
type Phase string

const (
	// PhaseForward fires at the top of the rank's forward pass.
	PhaseForward Phase = "forward"
	// PhaseBackward fires between forward and backward.
	PhaseBackward Phase = "backward"
	// PhasePack fires as the rank packs gradients: before its first
	// Produce of the step, in barrier and overlap mode alike.
	PhasePack Phase = "pack"
	// PhaseFlush fires inside the collective, at the top of the
	// rank's reduce of one bucket ("flush-bucket-k" in plan syntax;
	// the barrier's one bucket, the whole packed vector, is bucket 0).
	PhaseFlush Phase = "flush"
)

// Fault is one planned failure: rank Rank dies at step Step during
// Phase. Bucket selects which bucket flush for PhaseFlush (-1 = the
// first flush the rank attempts that step); it is ignored otherwise.
type Fault struct {
	Rank   int
	Step   int
	Phase  Phase
	Bucket int

	fired bool
}

// Injected is the panic value of a triggered fault. It implements
// error and exposes the failed rank, so recovery code can identify
// the victim uniformly with real failures.
type Injected struct {
	Rank   int
	Step   int
	Phase  Phase
	Bucket int
}

func (f Injected) Error() string {
	if f.Phase == PhaseFlush && f.Bucket >= 0 {
		return fmt.Sprintf("elastic: injected fault: rank %d killed at step %d during flush-bucket-%d", f.Rank, f.Step, f.Bucket)
	}
	return fmt.Sprintf("elastic: injected fault: rank %d killed at step %d during %s", f.Rank, f.Step, f.Phase)
}

// FailedRank returns the rank the fault killed. The same method on
// simnet's structured node panic makes both identifiable through one
// interface without this package importing the simulator.
func (f Injected) FailedRank() int { return f.Rank }

// FailedRank extracts the failed rank from a recovered panic value:
// an Injected fault, or any value exposing FailedRank() int (simnet
// wraps rank-goroutine panics in such a value). ok is false when the
// panic does not identify a rank.
func FailedRank(r any) (rank int, ok bool) {
	if v, ok := r.(interface{ FailedRank() int }); ok {
		return v.FailedRank(), true
	}
	return -1, false
}

// FaultPlan is a set of planned faults. Check is called concurrently
// from rank goroutines; each fault fires exactly once.
type FaultPlan struct {
	mu     sync.Mutex
	faults []Fault
}

// ParseFaultPlan parses a comma-separated plan in CLI syntax:
//
//	r@s:phase
//
// where phase is one of forward, backward, pack, flush (first bucket
// flushed), or flush-bucket-k (bucket k exactly). "3@5:flush-bucket-0"
// kills rank 3 at step 5 as it starts reducing bucket 0.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		at := strings.IndexByte(part, '@')
		colon := strings.IndexByte(part, ':')
		if at < 0 || colon < at {
			return nil, fmt.Errorf("elastic: bad fault %q: want r@s:phase", part)
		}
		rank, err := strconv.Atoi(part[:at])
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("elastic: bad fault %q: rank must be a non-negative integer", part)
		}
		step, err := strconv.Atoi(part[at+1 : colon])
		if err != nil || step < 0 {
			return nil, fmt.Errorf("elastic: bad fault %q: step must be a non-negative integer", part)
		}
		f := Fault{Rank: rank, Step: step, Bucket: -1}
		switch phase := part[colon+1:]; {
		case phase == string(PhaseForward), phase == string(PhaseBackward), phase == string(PhasePack), phase == string(PhaseFlush):
			f.Phase = Phase(phase)
		case strings.HasPrefix(phase, "flush-bucket-"):
			b, err := strconv.Atoi(phase[len("flush-bucket-"):])
			if err != nil || b < 0 {
				return nil, fmt.Errorf("elastic: bad fault %q: want flush-bucket-<k>", part)
			}
			f.Phase = PhaseFlush
			f.Bucket = b
		default:
			return nil, fmt.Errorf("elastic: bad fault %q: unknown phase %q", part, phase)
		}
		p.faults = append(p.faults, f)
	}
	if len(p.faults) == 0 {
		return nil, fmt.Errorf("elastic: empty fault plan %q", spec)
	}
	return p, nil
}

// Check panics with an Injected value if the plan holds an unfired
// fault matching (rank, step, phase, bucket). bucket is compared only
// for PhaseFlush, where a planned Bucket of -1 matches the first
// flush the rank attempts. Each fault fires at most once, so a step
// retried after recovery cannot re-trigger it.
func (p *FaultPlan) Check(rank, step int, phase Phase, bucket int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for i := range p.faults {
		f := &p.faults[i]
		if f.fired || f.Rank != rank || f.Step != step || f.Phase != phase {
			continue
		}
		if phase == PhaseFlush && f.Bucket >= 0 && f.Bucket != bucket {
			continue
		}
		f.fired = true
		inj := Injected{Rank: rank, Step: step, Phase: phase, Bucket: f.Bucket}
		p.mu.Unlock()
		panic(inj)
	}
	p.mu.Unlock()
}

// Fired reports how many faults have fired: swtrain's
// elastic.faults_injected.
func (p *FaultPlan) Fired() int {
	if p == nil {
		return 0
	}
	return len(p.faults) - p.Pending()
}

// Pending reports how many faults have not fired yet.
func (p *FaultPlan) Pending() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.faults {
		if !p.faults[i].fired {
			n++
		}
	}
	return n
}
