package dataset

import (
	"testing"

	"swcaffe/internal/tensor"
)

func TestClustersSeparable(t *testing.T) {
	ds := NewClusters(1000, 3, 1, 4, 4, 0.1, 1)
	c, h, w := ds.Dims()
	dim := c * h * w
	// Examples of the same class are closer to their own centroid than
	// to other centroids (low noise makes this near-certain).
	centroids := make([][]float64, 3)
	counts := make([]int, 3)
	for k := range centroids {
		centroids[k] = make([]float64, dim)
	}
	buf := make([]float32, dim)
	for i := 0; i < 300; i++ {
		lbl := ds.Example(i, buf)
		for j, v := range buf {
			centroids[lbl][j] += float64(v)
		}
		counts[lbl]++
	}
	for k := range centroids {
		for j := range centroids[k] {
			centroids[k][j] /= float64(counts[k])
		}
	}
	miss := 0
	for i := 300; i < 400; i++ {
		lbl := ds.Example(i, buf)
		best, bestD := -1, 1e18
		for k := range centroids {
			var d float64
			for j, v := range buf {
				diff := float64(v) - centroids[k][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = k, d
			}
		}
		if best != lbl {
			miss++
		}
	}
	if miss > 2 {
		t.Fatalf("%d/100 nearest-centroid misses on a 0.1-noise task", miss)
	}
}

func TestBatchFill(t *testing.T) {
	ds := NewClusters(10, 2, 1, 2, 2, 0.1, 2)
	data := tensor.New(4, 1, 2, 2)
	labels := tensor.New(4, 1, 1, 1)
	Batch(ds, 8, data, labels) // wraps around: indices 8, 9, 0, 1
	want := []int{8 % 2, 9 % 2, 0, 1 % 2}
	for b := 0; b < 4; b++ {
		if int(labels.Data[b]) != want[b] {
			t.Fatalf("label[%d] = %g, want %d", b, labels.Data[b], want[b])
		}
	}
	// Data rows match the direct Example calls.
	buf := make([]float32, 4)
	ds.Example(9, buf)
	for j := 0; j < 4; j++ {
		if data.Data[4+j] != buf[j] {
			t.Fatal("batch row 1 mismatch")
		}
	}
}
