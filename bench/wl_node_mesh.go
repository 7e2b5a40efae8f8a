package main

import (
	"fmt"
	"math"

	"swcaffe/internal/core"
	"swcaffe/internal/dataset"
	"swcaffe/internal/detrand"
	"swcaffe/internal/sw26010"
	"swcaffe/internal/swdnn"
	"swcaffe/internal/tensor"
	"swcaffe/internal/train"
)

const (
	meshN                  = 128 // square GEMM
	raggedM, raggedK, ragN = 60, 52, 44
	cgQuarterBatch         = 2
)

var meshSimNames = [4]string{"gemm128", "ragged", "conv", "cgstep"}

var meshConv = swdnn.ConvShape{B: 1, Ni: 8, Ri: 16, Ci: 16, No: 8, K: 3, S: 1, P: 1}

// nodeMesh is everything that runs on one simulated SW26010: the
// register-communication GEMM (square, and ragged through the
// pad/unpad staging), the explicit convolution pipeline, and one
// Algorithm-1 step of the 4-CG trainer with its mesh gradient sums.
type nodeMesh struct {
	e  *env
	cg *sw26010.CoreGroup
	ds *dataset.Clusters
	t  *train.CGTrainer

	a, b, c       []float32 // 128^3 GEMM
	ra, rb, rc    []float32 // ragged GEMM
	src, w, bias  []float32 // conv
	dst, refC     []float32
	sim, firstSim [4]float64 // gemm128, ragged, conv, CG step (seconds)
	loss          float32
	log           *simLog
}

func newNodeMesh(e *env) (instance, error) {
	rng := detrand.New(e.seed)
	ro, co := meshConv.OutDims()
	n := &nodeMesh{
		e: e, cg: sw26010.NewCoreGroup(nil), ds: scaleDataset(e.seed), log: newSimLog(),
		a: fill(rng, meshN*meshN), b: fill(rng, meshN*meshN), c: make([]float32, meshN*meshN),
		ra: fill(rng, raggedM*raggedK), rb: fill(rng, raggedK*ragN), rc: make([]float32, raggedM*ragN),
		src:  fill(rng, meshConv.Ni*meshConv.Ri*meshConv.Ci),
		w:    fill(rng, meshConv.No*meshConv.Ni*meshConv.K*meshConv.K),
		bias: fill(rng, meshConv.No), dst: make([]float32, meshConv.No*ro*co),
		refC: make([]float32, meshN*meshN),
	}
	id := e.tr.begin("train", "NewCGTrainer")
	t, err := train.NewCGTrainer(func() (*core.Net, map[string]*tensor.Tensor, error) {
		return scaleNet(cgQuarterBatch)
	}, scaleSolver)
	e.tr.end(id)
	if err != nil {
		n.cg.Close()
		return nil, err
	}
	n.t = t
	swdnn.RefGEMM(n.a, n.b, n.refC, meshN, meshN, meshN)
	n.run(-1) // warm-up: CPE pools, staging pools, momentum history
	clear(n.c)
	return n, nil
}

func (n *nodeMesh) run(i int) {
	tr := n.e.tr
	id := tr.begin("swdnn", "GEMMRun128")
	n.sim[0] = swdnn.GEMMRun(n.cg, n.a, n.b, n.c, meshN, meshN, meshN)
	tr.end(id)
	id = tr.begin("swdnn", "GEMMRunRagged")
	n.sim[1] = swdnn.GEMMRun(n.cg, n.ra, n.rb, n.rc, raggedM, raggedK, ragN)
	tr.end(id)
	id = tr.begin("swdnn", "ConvExplicitRun")
	n.sim[2] = swdnn.ConvExplicitRun(n.cg, n.src, n.w, n.bias, meshConv, n.dst)
	tr.end(id)
	id = tr.begin("dataset", "Batch")
	for k, w := range n.t.CGs {
		dataset.Batch(n.ds, ((i+2)*len(n.t.CGs)+k)*cgQuarterBatch, w.Data, w.Labels) // i >= -2
	}
	tr.end(id)
	id = tr.begin("train", "CGStep")
	before := n.t.SimTime
	n.loss = n.t.Step()
	n.sim[3] = n.t.SimTime - before
	tr.end(id)
}

func (n *nodeMesh) check(i int) error {
	if i == 0 {
		n.firstSim = n.sim
	}
	if i < n.e.batch {
		for k, v := range n.sim {
			n.log.f64(meshSimNames[k], v)
		}
		n.log.f64("loss", float64(n.loss))
	}
	// The kernels return their own simulated time and must repeat it
	// bit for bit; the trainer's step is a difference of its cumulative
	// clock, which rounds differently as the clock grows.
	if [3]float64(n.sim[:3]) != [3]float64(n.firstSim[:3]) || math.Abs(n.sim[3]-n.firstSim[3]) > 1e-9*n.firstSim[3] {
		return fmt.Errorf("simulated times %v differ from the first op's %v", n.sim, n.firstSim)
	}
	if !finite(n.loss) {
		return fmt.Errorf("loss %v", n.loss)
	}
	var err error
	if i%50 == 0 {
		for k, v := range n.c {
			if math.Abs(float64(v-n.refC[k])) > 1e-3 {
				err = fmt.Errorf("GEMM c[%d] = %g, reference %g", k, v, n.refC[k])
				break
			}
		}
	}
	clear(n.c) // GEMMRun accumulates: C += A·B
	return err
}

func (n *nodeMesh) simPerOp() float64 {
	return 1e6 * (n.firstSim[0] + n.firstSim[1] + n.firstSim[2] + n.firstSim[3])
}

func (n *nodeMesh) digest() string { return n.log.sum() }

func (n *nodeMesh) probe(m map[string]float64) {
	tr := n.e.tr
	m["swdnn.gemm128_host_us"] = tr.medianNS("swdnn", "GEMMRun128") / 1e3
	m["swdnn.gemm_ragged_host_us"] = tr.medianNS("swdnn", "GEMMRunRagged") / 1e3
	m["swdnn.conv_host_us"] = tr.medianNS("swdnn", "ConvExplicitRun") / 1e3
	m["train.cg_step_host_us"] = tr.medianNS("train", "CGStep") / 1e3
	m["swdnn.gemm128_sim_us"] = n.firstSim[0] * 1e6
	m["swdnn.gemm_ragged_sim_us"] = n.firstSim[1] * 1e6
	m["swdnn.conv_sim_us"] = n.firstSim[2] * 1e6
	m["train.cg_step_sim_us"] = n.firstSim[3] * 1e6

	// Counts of one op, from the kernels' CoreGroup and the trainer's node.
	n.cg.ResetStats()
	node := n.t.Node()
	s0, l0 := node.Stats(), node.Launches()
	n.e.tr = nil
	n.run(-2)
	n.e.tr = tr
	s1, st := node.Stats(), n.cg.Stats()
	m["sw26010.dma_bytes_per_op"] = float64(st.DMAGetBytes + st.DMAPutBytes +
		s1.DMAGetBytes - s0.DMAGetBytes + s1.DMAPutBytes - s0.DMAPutBytes)
	m["sw26010.rlc_msgs_per_op"] = float64(st.RLCMsgs + s1.RLCMsgs - s0.RLCMsgs)
	m["sw26010.flops_per_op"] = st.Flops + s1.Flops - s0.Flops
	m["swnode.launches_per_step"] = float64(node.Launches() - l0)

	m["sw26010.launch_host_us"] = timeN(200, func() { n.cg.Run(func(*sw26010.CPE) {}) }) / 1e3
	acc, add := make([]float32, 512*64), make([]float32, 512*64) // fc1's weight gradient
	m["swdnn.sum_host_us"] = timeN(200, func() { swdnn.SumRun(n.cg, acc, add) }) / 1e3
	stream := node.NewStream()
	m["swnode.launch_host_us"] = timeN(200, func() {
		stream.LaunchFunc(0, func() float64 { return 0 }).Wait()
	}) / 1e3
}

func (n *nodeMesh) close() {
	n.t.Close()
	n.cg.Close()
}
