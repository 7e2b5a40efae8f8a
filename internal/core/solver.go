package core

import (
	"fmt"
	"math"

	"swcaffe/internal/f32"
	"swcaffe/internal/tensor"
)

// LRPolicy computes the learning rate at an iteration (Caffe's
// lr_policy).
type LRPolicy interface {
	Rate(baseLR float64, iter int) float64
}

// FixedLR keeps the base learning rate.
type FixedLR struct{}

// Rate returns baseLR unchanged.
func (FixedLR) Rate(baseLR float64, iter int) float64 { return baseLR }

// StepLR multiplies by Gamma every StepSize iterations.
type StepLR struct {
	StepSize int
	Gamma    float64
}

// Rate implements the "step" policy.
func (p StepLR) Rate(baseLR float64, iter int) float64 {
	return baseLR * math.Pow(p.Gamma, float64(iter/p.StepSize))
}

// SolverConfig holds the SGD hyper-parameters.
type SolverConfig struct {
	BaseLR      float64
	Momentum    float64
	WeightDecay float64
	Policy      LRPolicy
	// ClipGradients, when positive, rescales gradients whose global L2
	// norm exceeds it.
	ClipGradients float64
}

// Solver implements momentum SGD with weight decay — Caffe's SGDSolver
// (paper Sec. II-C: the "solvers" optimization level, where
// distributed training hooks live).
type Solver struct {
	cfg  SolverConfig
	net  *Net
	iter int

	history map[*Param]*tensor.Tensor // momentum buffers

	// GradientHook, when non-nil, runs between backward and the
	// parameter update: distributed training installs the all-reduce
	// here (Algorithm 1, line 9).
	GradientHook func(net *Net)
}

// NewSolver builds a solver over a net that has been Setup.
func NewSolver(net *Net, cfg SolverConfig) *Solver {
	if cfg.Policy == nil {
		cfg.Policy = FixedLR{}
	}
	return &Solver{cfg: cfg, net: net, history: make(map[*Param]*tensor.Tensor)}
}

// Iter returns the number of completed iterations.
func (s *Solver) Iter() int { return s.iter }

// LR returns the learning rate for the current iteration.
func (s *Solver) LR() float64 { return s.cfg.Policy.Rate(s.cfg.BaseLR, s.iter) }

// Step runs one training iteration (forward, backward, update) and
// returns the loss.
func (s *Solver) Step() float32 {
	s.net.ZeroParamDiffs()
	loss := s.net.Forward(Train)
	s.net.Backward(Train)
	if s.GradientHook != nil {
		s.GradientHook(s.net)
	}
	s.ApplyUpdate()
	return loss
}

// ApplyUpdate performs the momentum-SGD parameter update using the
// gradients currently in the net. Exposed separately so distributed
// trainers can drive forward/backward/all-reduce themselves
// (Algorithm 1, line 10: w_{t+1} <- SGD(w_t, G_t)).
func (s *Solver) ApplyUpdate() {
	lr := s.LR()
	if s.cfg.ClipGradients > 0 {
		s.clipGradients()
	}
	for _, p := range s.net.LearnableParams() {
		h := s.historyFor(p)
		localLR := float32(lr * p.LRMult)
		decay := float32(s.cfg.WeightDecay * p.DecayMult)
		f32.SGD(p.Data.Data, h.Data, p.Diff.Data, decay, localLR, float32(s.cfg.Momentum))
	}
	s.iter++
}

// History returns the momentum buffer of a parameter, or nil if no
// update has touched it yet. Checkpoint capture uses this read-only
// view: params the solver never updated have no buffer to save.
func (s *Solver) History(p *Param) *tensor.Tensor { return s.history[p] }

// EnsureHistory returns the momentum buffer of a parameter,
// allocating it zeroed on first use — checkpoint restore writes a
// saved buffer here before the solver's next update reads it.
func (s *Solver) EnsureHistory(p *Param) *tensor.Tensor { return s.historyFor(p) }

// SetIter overwrites the completed-iteration counter. The counter
// drives the LR policy, so a restored trainer must resume the decay
// schedule where the checkpoint left it.
func (s *Solver) SetIter(iter int) { s.iter = iter }

// historyFor returns (allocating on first use) the momentum buffer of
// a parameter.
func (s *Solver) historyFor(p *Param) *tensor.Tensor {
	h, ok := s.history[p]
	if !ok {
		h = tensor.New(p.Data.N, p.Data.C, p.Data.H, p.Data.W)
		s.history[p] = h
	}
	return h
}

func (s *Solver) clipGradients() {
	var sumSq float64
	for _, p := range s.net.LearnableParams() {
		sumSq += p.Diff.SumSquares()
	}
	norm := math.Sqrt(sumSq)
	if norm <= s.cfg.ClipGradients {
		return
	}
	scale := float32(s.cfg.ClipGradients / norm)
	for _, p := range s.net.LearnableParams() {
		p.Diff.Scale(scale)
	}
}

// CheckFinite panics with a diagnostic if any parameter or gradient is
// NaN/Inf — a debugging aid for failure-injection tests.
//
//swvet:ignore deadexport: safety check nothing calls yet; TestSolverCheckFiniteCatchesNaN pins it
func (s *Solver) CheckFinite() {
	for _, p := range s.net.Params() {
		for i, v := range p.Data.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				panic(fmt.Sprintf("core: parameter %s[%d] is %v at iter %d", p.Name, i, v, s.iter))
			}
		}
	}
}
