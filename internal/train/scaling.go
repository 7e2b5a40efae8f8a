// Package train implements swCaffe's distributed synchronous SGD
// (paper Sec. V, Algorithm 1) in two coupled forms:
//
//   - an *analytic* scaling model that composes the per-node compute
//     time (4 core groups over a quarter mini-batch each), the
//     intra-node gradient summation and the packed all-reduce cost —
//     this regenerates Figs. 10 and 11;
//   - a *functional* multi-worker trainer over the simnet message
//     layer whose updates are numerically equivalent to serial SGD on
//     the concatenated mini-batch, which the test suite verifies.
package train

import (
	"fmt"
	"math"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/models"
	"swcaffe/internal/perf"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/topology"
)

// ScalingConfig parameterizes the analytic multi-node model. The
// machine is fixed: layer compute is priced on one SW26010 core group
// (perf.NewSWCG) and the all-reduce on the TaihuLight interconnect
// (topology.Sunway), its sum on the MPE (γ_MPE), with the β terms
// derated by effAt(p, 0.035). That derating stands for the software
// pipelining, buffer copies and switch congestion the pure α-β model
// omits: the sustained fraction at the 1024-node end of the sweep,
// relaxing toward nearly full link efficiency at p=2. It was
// calibrated once so the 1024-node communication shares match Fig. 11
// (TestFigure10And11Claims in internal/experiments bounds the 1024-node
// shares; the repository's testdata/evaluation.golden pins the
// figure). Input I/O is not priced.
type ScalingConfig struct {
	// Model is the architecture name registered in internal/models.
	Model string
	// SubBatch is the per-node mini-batch (the paper's "sub-mini-batch").
	SubBatch int
	// Nodes is the number of SW26010 nodes (paper scales to 1024).
	Nodes int
	// Adjacent selects the baseline adjacent rank mapping instead of
	// the paper's topology-aware round-robin mapping (the default).
	Adjacent bool
}

func (c *ScalingConfig) validate() error {
	if c.SubBatch%sw26010.CoreGroups != 0 {
		return fmt.Errorf("train: sub-batch %d not divisible by %d core groups", c.SubBatch, sw26010.CoreGroups)
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("train: need at least one node")
	}
	return nil
}

// effAt interpolates the realized collective link efficiency between
// ~0.6 at p=2 (one pipelined exchange approaches the microbenchmark
// bandwidth) and endEff at p=1024 (software pipelining, buffer copies
// and switch congestion compound with scale), geometrically in log2 p.
func effAt(p int, endEff float64) float64 {
	const startEff = 0.6
	if p <= 2 || endEff >= startEff {
		return startEff
	}
	frac := (math.Log2(float64(p)) - 1) / 9 // p=2 -> 0, p=1024 -> 1
	if frac > 1 {
		frac = 1
	}
	return startEff * math.Pow(endEff/startEff, frac)
}

// Breakdown is the per-iteration time decomposition of one node.
type Breakdown struct {
	Compute   float64 // forward+backward on 4 CGs (parallel, max)
	IntraSum  float64 // CG0 summing the 4 CG gradients (Algorithm 1 line 8)
	Allreduce float64 // packed gradient all-reduce across nodes
}

// Total returns the iteration wall time.
func (b Breakdown) Total() float64 { return b.Compute + b.IntraSum + b.Allreduce }

// CommFraction returns the share of iteration time spent in
// communication (the quantity of Fig. 11).
func (b Breakdown) CommFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.Allreduce / t
}

// node is the part of an iteration that does not depend on the node
// count: the compute and intra-node sum of one node, the payload its
// all-reduce moves and the network that prices it. A sweep prices it
// once and reuses it at every p.
type node struct {
	compute, intraSum, paramBytes float64
	net                           *topology.Network
}

// priceNode validates cfg and prices its node.
func priceNode(cfg *ScalingConfig) (node, error) {
	if err := cfg.validate(); err != nil {
		return node{}, err
	}
	build, ok := models.ByName(cfg.Model)
	if !ok {
		return node{}, fmt.Errorf("train: unknown model %q", cfg.Model)
	}
	spec := build(cfg.SubBatch / sw26010.CoreGroups)
	paramBytes := float64(spec.ParamBytes())
	return node{
		compute: spec.Total(perf.NewSWCG()).Total(),
		// Intra-node summation: CG0 streams three remote gradients
		// against its own (3 reads + 1 accumulate write per element)
		// through LDM.
		intraSum:   4 * paramBytes / sw26010.Default().DMAPeak,
		paramBytes: paramBytes,
		net:        topology.Sunway(),
	}, nil
}

// at composes n's iteration on p nodes.
func (n node) at(cfg *ScalingConfig, p int) Breakdown {
	bd := Breakdown{Compute: n.compute, IntraSum: n.intraSum}
	if p > 1 {
		var c allreduce.Cost
		if cfg.Adjacent {
			c = allreduce.OriginalRHDCost(n.net, p, n.paramBytes, false)
		} else {
			c = allreduce.ImprovedRHDCost(n.net, p, n.paramBytes, false)
		}
		bd.Allreduce = c.Latency + (c.Intra+c.Inter)/effAt(p, 0.035) + c.Reduction
	}
	return bd
}

// Iteration evaluates the analytic model for one configuration.
func Iteration(cfg ScalingConfig) (Breakdown, error) {
	n, err := priceNode(&cfg)
	if err != nil {
		return Breakdown{}, err
	}
	return n.at(&cfg, cfg.Nodes), nil
}

// Speedup returns the throughput speedup of p nodes over one node at
// the same sub-batch — the y-axis of Fig. 10:
// S(p) = p · T(1) / T(p).
func Speedup(cfg ScalingConfig) (float64, error) {
	n, err := priceNode(&cfg)
	if err != nil {
		return 0, err
	}
	return float64(cfg.Nodes) * n.at(&cfg, 1).Total() / n.at(&cfg, cfg.Nodes).Total(), nil
}

// ThroughputImgPerSec returns images/second for the configuration.
func ThroughputImgPerSec(cfg ScalingConfig) (float64, error) {
	bd, err := Iteration(cfg)
	if err != nil {
		return 0, err
	}
	return float64(cfg.Nodes) * float64(cfg.SubBatch) / bd.Total(), nil
}

// ScalePoints evaluates speedup and communication share over a node
// sweep, for the Fig. 10/11 series.
type ScalePoint struct {
	Nodes        int
	Speedup      float64
	CommFraction float64
	IterTime     float64
}

// Sweep evaluates the scaling curve at the given node counts. The node
// is priced once; each point adds only its all-reduce term.
func Sweep(cfg ScalingConfig, nodes []int) ([]ScalePoint, error) {
	cfg.Nodes = 1 // the node is priced alone; each point brings its own p
	n, err := priceNode(&cfg)
	if err != nil {
		return nil, err
	}
	t1 := n.at(&cfg, 1).Total()
	out := make([]ScalePoint, 0, len(nodes))
	for _, p := range nodes {
		if p <= 0 {
			return nil, fmt.Errorf("train: need at least one node")
		}
		bd := n.at(&cfg, p)
		out = append(out, ScalePoint{
			Nodes:        p,
			Speedup:      float64(p) * t1 / bd.Total(),
			CommFraction: bd.CommFraction(),
			IterTime:     bd.Total(),
		})
	}
	return out, nil
}
