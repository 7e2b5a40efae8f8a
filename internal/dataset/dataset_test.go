package dataset

import (
	"math"
	"sync"
	"testing"

	"swcaffe/internal/detrand"
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

// reference is Example's body before the table: every load draws.
func reference(d *Clusters, i int, dst []float32) int {
	lbl := i % d.K
	rng := detrand.New(uint64(i)*7919 + 13)
	center := d.centers[lbl]
	for j := range center {
		dst[j] = center[j] + float32(rng.NormFloat64()*d.noise)
	}
	return lbl
}

// sameExample reports whether example i loaded into got with label
// lbl has the reference's label and bits.
func sameExample(d *Clusters, i, lbl int, got []float32) bool {
	want := make([]float32, len(got))
	if reference(d, i, want) != lbl {
		return false
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			return false
		}
	}
	return true
}

// TestExampleMatchesReference: a cold pass (last index first, so that
// chunks are filled from a middle example, the last one partial), a
// warm pass (which copies rows) and wrapping Batches over a fresh
// dataset give the reference's bits at every index, and an index past
// the table, or a K changed after construction, still gives the
// reference's result.
func TestExampleMatchesReference(t *testing.T) {
	for _, shape := range []struct{ n, k, c, h, w int }{{4096, 10, 1, 8, 8}, {201, 3, 3, 5, 1}} {
		d := NewClusters(shape.n, shape.k, shape.c, shape.h, shape.w, 0.35, 5)
		dim := shape.c * shape.h * shape.w
		buf := make([]float32, dim)
		for i := d.N - 1; i >= 0; i-- {
			if lbl := d.Example(i, buf); !sameExample(d, i, lbl, buf) {
				t.Fatalf("%v: cold Example(%d) differs from the reference", shape, i)
			}
		}
		for i := 0; i < d.N; i++ {
			if lbl := d.Example(i, buf); !sameExample(d, i, lbl, buf) {
				t.Fatalf("%v: warm Example(%d) differs from the reference", shape, i)
			}
		}
		const batch = 7
		data, labels := tensor.New(batch, shape.c, shape.h, shape.w), tensor.New(batch, 1, 1, 1)
		fresh := NewClusters(shape.n, shape.k, shape.c, shape.h, shape.w, 0.35, 5)
		for start := 0; start < d.N; start += batch {
			Batch(fresh, start, data, labels)
			for b := 0; b < batch; b++ {
				i := (start + b) % d.N
				if !sameExample(d, i, int(labels.Data[b]), data.Data[b*dim:(b+1)*dim]) {
					t.Fatalf("%v: Batch row %d (example %d) differs from the reference", shape, b, i)
				}
			}
		}
		for _, i := range []int{d.N, 2*d.N + 1} {
			if lbl := d.Example(i, buf); !sameExample(d, i, lbl, buf) {
				t.Fatalf("%v: out-of-table Example(%d) differs from the reference", shape, i)
			}
		}
		func() { // a negative index has no class: it panics, as the reference does
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: Example(-1) did not panic", shape)
				}
			}()
			d.Example(-1, buf)
		}()
		d.K = 2
		if lbl := d.Example(5, buf); !sameExample(d, 5, lbl, buf) {
			t.Fatalf("%v: Example(5) after K changed differs from the reference", shape)
		}
	}
}

// TestConcurrentExamples: goroutines loading overlapping indices from a
// fresh dataset, the way the DES backend's pass pool loads shards, all
// get the reference's bits. They start together a few examples apart,
// so they meet in each chunk while it is being filled (examples of 256
// values make a fill long). Run it under -race.
func TestConcurrentExamples(t *testing.T) {
	const n, workers = 512, 8
	d := NewClusters(n, 4, 1, 16, 16, 0.35, 9)
	start, bad := make(chan struct{}), make(chan int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float32, 256)
			<-start
			for k := 0; k < 2*n; k++ {
				i := (k + 7*g) % n
				if lbl := d.Example(i, buf); !sameExample(d, i, lbl, buf) {
					bad <- i
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(bad)
	for i := range bad {
		t.Errorf("a concurrent Example(%d) differs from the reference", i)
	}
}

// TestExampleAllocations: a cold pass over a fresh dataset allocates
// one object per chunk of the table, nothing per example, and a warm
// Example and a Batch allocate nothing.
func TestExampleAllocations(t *testing.T) {
	const runs, n = 20, 1024
	fresh := make([]*Clusters, runs+1) // AllocsPerRun calls once more, unmeasured
	for r := range fresh {
		fresh[r] = NewClusters(n, 10, 1, 8, 8, 0.35, 5)
	}
	buf := make([]float32, 64)
	coldPass := func() {
		d := fresh[0]
		fresh = fresh[1:]
		for i := range n {
			d.Example(i, buf)
		}
	}
	if got := testing.AllocsPerRun(runs, coldPass); got != n/chunk {
		t.Errorf("a cold pass over %d examples allocates %v objects, want %d (one per chunk)", n, got, n/chunk)
	}
	d := NewClusters(4096, 10, 1, 8, 8, 0.35, 5)
	if got := testing.AllocsPerRun(100, func() { d.Example(3, buf) }); got != 0 {
		t.Errorf("a warm Example allocates %v objects", got)
	}
	data, labels := tensor.New(16, 1, 8, 8), tensor.New(16, 1, 1, 1)
	if got := testing.AllocsPerRun(100, func() { Batch(d, 4090, data, labels) }); got != 0 {
		t.Errorf("a Batch allocates %v objects", got)
	}
}
