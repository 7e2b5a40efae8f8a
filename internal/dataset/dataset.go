// Package dataset provides deterministic synthetic training data (we
// cannot ship ImageNet): a separable Gaussian-cluster task on which
// the functional training stack demonstrably converges.
package dataset

import (
	"sync/atomic"

	"swcaffe/internal/detrand"
	"swcaffe/internal/tensor"
)

// Dataset yields (example, label) pairs by index.
type Dataset interface {
	// Len returns the number of examples.
	Len() int
	// Example writes example i into dst (shaped (1, C, H, W)) and
	// returns its label.
	Example(i int, dst []float32) int
	// Dims returns the (C, H, W) of one example.
	Dims() (c, h, w int)
}

// Clusters is a linearly separable Gaussian-cluster classification
// task: class k is a Gaussian blob around a fixed random center.
// Small nets reach high accuracy on it within a few hundred
// iterations, which the convergence tests and examples exploit.
// Example i is a pure function of i, so each is drawn once, into a
// table of the N·C·H·W values (1 MiB for 4096 examples of 1×8×8).
type Clusters struct {
	N       int
	K       int
	C, H, W int
	noise   float64
	centers [][]float32
	n, dim  int             // the table's examples and their size
	chunks  [][]float32     // chunk c: examples [16c, 16c+16) once state[c] is 2
	state   []atomic.Uint32 // per chunk: 0 empty, 1 being filled, 2 filled
}

// chunk is the examples a table chunk holds. A chunk is allocated by
// the first load of one of them: a whole table allocated by NewClusters
// would be zeroed and faulted in there, a quarter of a small set-up.
const chunk = 16

// NewClusters builds a k-class cluster task over (c, h, w) inputs.
func NewClusters(n, k, c, h, w int, noise float64, seed int64) *Clusters {
	rng := detrand.New(uint64(seed))
	dim := c * h * w
	centers := make([][]float32, k)
	for i := range centers {
		centers[i] = make([]float32, dim)
		for j := range centers[i] {
			centers[i][j] = float32(rng.NormFloat64())
		}
	}
	chunks := (n + chunk - 1) / chunk
	return &Clusters{N: n, K: k, C: c, H: h, W: w, noise: noise, centers: centers,
		n: n, dim: dim, chunks: make([][]float32, chunks), state: make([]atomic.Uint32, chunks)}
}

// Len implements Dataset.
func (d *Clusters) Len() int { return d.N }

// Dims implements Dataset.
func (d *Clusters) Dims() (int, int, int) { return d.C, d.H, d.W }

// Example implements Dataset. A chunk's first load allocates it and
// draws its examples; later loads copy. Concurrent calls are safe (one
// that finds the chunk being filled draws into dst), and an index
// outside the table or a K changed since construction bypasses it.
func (d *Clusters) Example(i int, dst []float32) int {
	if uint(i) >= uint(d.n) || d.K != len(d.centers) {
		return d.draw(i, dst)
	}
	c, st := i/chunk, &d.state[i/chunk]
	switch {
	case st.Load() == 2:
	case st.CompareAndSwap(0, 1):
		lo, hi := c*chunk, min(c*chunk+chunk, d.n)
		rows := make([]float32, (hi-lo)*d.dim)
		for j := lo; j < hi; j++ {
			d.draw(j, rows[(j-lo)*d.dim:])
		}
		d.chunks[c] = rows
		st.Store(2)
	default:
		return d.draw(i, dst)
	}
	copy(dst[:d.dim], d.chunks[c][i%chunk*d.dim:][:d.dim])
	return i % d.K
}

// draw writes example i into dst and returns its label.
func (d *Clusters) draw(i int, dst []float32) int {
	lbl := i % d.K
	rng := detrand.New(uint64(i)*7919 + 13)
	center := d.centers[lbl]
	for j := range center {
		dst[j] = center[j] + float32(rng.NormFloat64()*d.noise)
	}
	return lbl
}

// Batch fills data (B, C, H, W) and labels (B) with examples indices
// [start, start+B), wrapping around the dataset.
func Batch(d Dataset, start int, data, labels *tensor.Tensor) {
	c, h, w := d.Dims()
	per := c * h * w
	for b := 0; b < data.N; b++ {
		idx := (start + b) % d.Len()
		lbl := d.Example(idx, data.Data[b*per:(b+1)*per])
		labels.Data[b] = float32(lbl)
	}
}

// Shard is a deterministic per-rank view of a Dataset for synchronous
// data-parallel training: rank r of n ranks reads iteration k's
// sub-batch at example indices [(k·n + r)·B, (k·n + r + 1)·B) — the
// exact indices DistTrainer.LoadShards uses — so the n shards of one
// iteration concatenate to the serial trainer's union batch.
type Shard struct {
	DS    Dataset
	Rank  int
	Ranks int
	Batch int // per-rank sub-batch
}

// Start returns the first example index of iteration it's shard.
func (s Shard) Start(it int) int { return (it*s.Ranks + s.Rank) * s.Batch }

// Load fills data (B, C, H, W) and labels (B) with iteration it's
// shard, wrapping around the dataset like Batch.
func (s Shard) Load(it int, data, labels *tensor.Tensor) {
	Batch(s.DS, s.Start(it), data, labels)
}

// Bytes returns the raw float32 volume of one shard batch — the
// quantity the pario storage model prices per concurrent reader.
func (s Shard) Bytes() int64 {
	c, h, w := s.DS.Dims()
	return int64(s.Batch) * int64(c*h*w) * 4
}
