// Package dataset provides deterministic synthetic training data (we
// cannot ship ImageNet): a separable Gaussian-cluster task on which
// the functional training stack demonstrably converges.
package dataset

import (
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
type Clusters struct {
	N       int
	K       int
	C, H, W int
	noise   float64
	centers [][]float32
}

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
	return &Clusters{N: n, K: k, C: c, H: h, W: w, noise: noise, centers: centers}
}

// Len implements Dataset.
func (d *Clusters) Len() int { return d.N }

// Dims implements Dataset.
func (d *Clusters) Dims() (int, int, int) { return d.C, d.H, d.W }

// Example implements Dataset.
func (d *Clusters) Example(i int, dst []float32) int {
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
// iteration concatenate to the serial trainer's union batch, and a
// prefetched shard is bit-identical to a directly-loaded one.
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
