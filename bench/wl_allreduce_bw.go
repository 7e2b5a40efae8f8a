package main

import (
	"fmt"
	"math"

	"swcaffe/internal/allreduce"
	"swcaffe/internal/detrand"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

const (
	bwRanks      = 32
	bwSupernode  = 8 // q: four supernodes, so hier has leaders to cross between
	bwElems      = 1 << 20
	bwSmokeElems = 1 << 14
)

// allreduceCycle is the order an op index walks the algorithms in,
// by the short names allreduce.ByName accepts.
var allreduceCycle = [3]string{"rhd", "ring", "hier"}

// allreduceBW is one fat all-reduce per op: 32 ranks, 4 MiB per rank,
// round-robin mapping, cycling rhd -> ring -> hier. Payloads are small
// integers, so every summation order gives the same float32 bits and
// one reference serves all three algorithms.
type allreduceBW struct {
	e      *env
	netw   *topology.Network
	c      *simnet.Cluster
	algs   [3]allreduce.Algorithm
	inputs [][]float32
	ref    []float32
	res    simnet.Result
	outs   [][]float32
	first  [3]simnet.Result
	seen   [3]bool
	log    *simLog
}

func newAllreduceBW(e *env) (instance, error) {
	elems := bwElems
	if e.smoke {
		elems = bwSmokeElems
	}
	netw := topology.Sunway()
	netw.SupernodeSize = bwSupernode
	a := &allreduceBW{e: e, netw: netw, log: newSimLog(),
		c:      simnet.NewCluster(netw, topology.RoundRobinMapping{Q: bwSupernode}, bwRanks),
		inputs: make([][]float32, bwRanks), ref: make([]float32, elems)}
	a.c.ReduceOnCPE = true
	rng := detrand.New(e.seed)
	for r := range a.inputs {
		a.inputs[r] = make([]float32, elems)
		for i := range a.inputs[r] {
			v := float32(rng.Intn(17) - 8)
			a.inputs[r][i] = v
			a.ref[i] += v
		}
	}
	for k, name := range allreduceCycle {
		alg, err := allreduce.ByName(name)
		if err != nil {
			return nil, err
		}
		a.algs[k] = alg
	}
	a.run(0) // warm-up: the cluster's pooled run state and channels
	return a, nil
}

func (a *allreduceBW) run(i int) {
	k := i % len(a.algs)
	alg := a.algs[k]
	id := a.e.tr.begin("allreduce", allreduceCycle[k])
	a.res, a.outs = a.c.RunGather(func(n *simnet.Node) []float32 { return alg(n, a.inputs[n.Rank]) })
	a.e.tr.end(id)
}

func (a *allreduceBW) check(i int) error {
	k := i % len(a.algs)
	if !a.seen[k] {
		a.first[k], a.seen[k] = a.res, true
	}
	if i < a.e.batch {
		a.log.f64("time", a.res.Time)
		a.log.u64("msgs", uint64(a.res.Msgs))
		a.log.u64("cross_msgs", uint64(a.res.CrossMsgs))
		a.log.u64("cross_bytes", uint64(a.res.CrossBytes))
	}
	f := a.first[k]
	if a.res.Time != f.Time || a.res.Msgs != f.Msgs || a.res.CrossMsgs != f.CrossMsgs || a.res.CrossBytes != f.CrossBytes {
		return fmt.Errorf("%s: makespan/census (%g, %d, %d, %d) differ from the first call's (%g, %d, %d, %d)", allreduceCycle[k],
			a.res.Time, a.res.Msgs, a.res.CrossMsgs, a.res.CrossBytes, f.Time, f.Msgs, f.CrossMsgs, f.CrossBytes)
	}
	for r, out := range a.outs {
		if len(out) != len(a.ref) {
			return fmt.Errorf("%s: rank %d returned %d elements, want %d", allreduceCycle[k], r, len(out), len(a.ref))
		}
		for j, v := range out {
			if math.Float32bits(v) != math.Float32bits(a.ref[j]) {
				return fmt.Errorf("%s: rank %d elem %d = %x, reference sum %x", allreduceCycle[k], r, j,
					math.Float32bits(v), math.Float32bits(a.ref[j]))
			}
		}
	}
	return nil
}

// simPerOp is the mean makespan of the three algorithms.
func (a *allreduceBW) simPerOp() float64 {
	return (a.first[0].Time + a.first[1].Time + a.first[2].Time) / 3 * 1e6
}

func (a *allreduceBW) digest() string { return a.log.sum() }

func (a *allreduceBW) probe(m map[string]float64) {
	n := 5
	if a.e.smoke {
		n = 1
	}
	allreduceProbe(m, a.netw, a.c.Mapping, bwRanks, len(a.ref), n, a.inputs)
	m["simnet.msgs_per_op"] = float64(a.first[0].Msgs+a.first[1].Msgs+a.first[2].Msgs) / 3
	simnetProbes(m)
}

func (a *allreduceBW) close() {}
