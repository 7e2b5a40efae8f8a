package topology

// Fabric prices one cluster's traffic: the α+βn cost of a message (paper
// Sec. V-A, ref. [14]), with β chosen per link from the supernode layout,
// and the γ cost of a local reduction on the MPE or the CPE clusters.
// Both cluster backends (internal/simnet and internal/des) embed one and
// price through its methods alone, so their clocks agree to the bit by
// construction. Every product is rounded explicitly (float64(x*y)): Go
// may otherwise fuse z + x*y into one multiply-add on arm64, which gives
// other bits than amd64.
//
// Net, Mapping and P are fixed at NewFabric (the supernode layout is
// resolved there); BytesPerElem and ReduceOnCPE may be set before a run.
type Fabric struct {
	Net     *Network
	Mapping Mapping
	P       int // number of nodes

	// BytesPerElem is the virtual wire size of one payload element
	// (default 4 = float32). Raise it to simulate large gradients with
	// small host buffers.
	BytesPerElem float64

	// ReduceOnCPE selects the CPE-cluster reduction rate (the paper's
	// optimization) instead of the MPE rate.
	ReduceOnCPE bool

	layout *Layout
}

// NewFabric builds the pricer of p nodes under mapping.
func NewFabric(net *Network, mapping Mapping, p int) Fabric {
	return Fabric{Net: net, Mapping: mapping, P: p, BytesPerElem: 4, layout: NewLayout(mapping, p)}
}

// Supernodes returns the supernode layout resolved at NewFabric.
func (f *Fabric) Supernodes() *Layout { return f.layout }

func (f *Fabric) wireBytes(elems int) int64 { return int64(float64(elems) * f.BytesPerElem) }

// Send returns when a sender that posts elems elements from src to dst
// at now is free again: now + (α + βn). A send occupies the sender for
// the whole transfer (a blocking MPI_Send).
func (f *Fabric) Send(src, dst, elems int, now float64) float64 {
	return now + f.Net.P2PTime(f.wireBytes(elems), f.layout.Same(src, dst))
}

// Arrive returns when a message of elems elements from src, posted at
// sent, lands on dst whose clock reads now: (start + α) + βn with start
// the later of the two. A NaN on either side keeps now.
func (f *Fabric) Arrive(src, dst, elems int, now, sent float64) float64 {
	bytes := f.wireBytes(elems)
	start := now
	if sent > start {
		start = sent
	}
	return start + f.Net.Alpha(bytes) + float64(float64(bytes)*f.Net.Beta(f.layout.Same(src, dst)))
}

// Reduce returns the clock after an elementwise reduction of elems
// values started at now: now + (elems·BytesPerElem)·γ.
func (f *Fabric) Reduce(elems int, now float64) float64 {
	rate := f.Net.GammaMPE
	if f.ReduceOnCPE {
		rate = f.Net.GammaCPE
	}
	return now + float64(float64(elems)*f.BytesPerElem*rate)
}

// Cross reports whether a message from src to dst leaves its supernode
// and, if so, its virtual wire size: what the traffic census counts.
func (f *Fabric) Cross(src, dst, elems int) (cross bool, wireBytes int64) {
	if f.layout.Same(src, dst) {
		return false, 0
	}
	return true, f.wireBytes(elems)
}

// Result summarizes one collective run on either backend.
type Result struct {
	// Time is the makespan: the maximum finishing clock over nodes.
	Time float64
	// Clocks holds each node's finishing clock, for skew inspection.
	// Like RunGather's outputs it is owned by the cluster and valid only
	// until the cluster's next run: a caller keeping it across runs
	// copies it out.
	Clocks []float64
	// Msgs counts the point-to-point messages the run posted;
	// CrossMsgs the subset whose endpoints sit in different supernodes
	// under the cluster's mapping, and CrossBytes those messages'
	// summed virtual wire size — the over-subscribed central-switch
	// traffic a topology-aware schedule minimizes.
	Msgs       int64
	CrossMsgs  int64
	CrossBytes int64
}

// NewResult takes the maximum of the finishing clocks and keeps the
// slice itself, not a copy.
func NewResult(clocks []float64, msgs, crossMsgs, crossBytes int64) Result {
	res := Result{Clocks: clocks, Msgs: msgs, CrossMsgs: crossMsgs, CrossBytes: crossBytes}
	for _, t := range clocks {
		if t > res.Time {
			res.Time = t
		}
	}
	return res
}
