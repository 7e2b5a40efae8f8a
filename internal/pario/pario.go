// Package pario models the shared-filesystem input pipeline of
// TaihuLight (paper Sec. V-B). The file system distributes a dataset
// file over disk arrays; by default ("single-split mode") one file
// lives entirely on one array, so concurrent readers quickly saturate
// that array's bandwidth. swCaffe raises the stripe count to 32 with
// 256 MB blocks, spreading a mini-batch read over at most two arrays
// per process and dividing the readers per array by the stripe count.
package pario

import "fmt"

// Config describes a striped dataset layout on the disk arrays.
type Config struct {
	// Arrays is the number of disk arrays in the storage system.
	Arrays int
	// ArrayBandwidth is the sustained read bandwidth of one array,
	// bytes/second.
	ArrayBandwidth float64
	// StripeCount is the number of arrays a single file is spread
	// over (1 = the default single-split mode).
	StripeCount int
	// StripeSize is the striping block size in bytes (swCaffe uses
	// 256 MB).
	StripeSize int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Arrays <= 0 || c.ArrayBandwidth <= 0 {
		return fmt.Errorf("pario: need positive arrays/bandwidth, got %+v", c)
	}
	if c.StripeCount <= 0 || c.StripeCount > c.Arrays {
		return fmt.Errorf("pario: stripe count %d out of range [1,%d]", c.StripeCount, c.Arrays)
	}
	if c.StripeSize <= 0 {
		return fmt.Errorf("pario: stripe size must be positive")
	}
	return nil
}

// DefaultTaihuLight returns the storage configuration of Sec. V-B:
// 32 disk arrays (we expose 32 as the pool the paper stripes over) at
// ~2 GB/s each.
func DefaultTaihuLight(stripes int) Config {
	return Config{
		Arrays:         32,
		ArrayBandwidth: 2e9,
		StripeCount:    stripes,
		StripeSize:     256 << 20,
	}
}

// ArraysPerRead returns how many distinct arrays one contiguous read
// of readBytes touches, worst case over the read's starting offset: a
// read of length L at an arbitrary offset spans at most ceil(L/S)+1
// stripes of size S (one partial stripe at each end), capped by the
// stripe count. With 256 MB stripes and ~192 MB mini-batches this is
// 2 — "a single process can access at most two disk arrays"
// (Sec. V-B).
func (c Config) ArraysPerRead(readBytes int64) int {
	if c.StripeCount == 1 || readBytes <= 0 {
		return 1
	}
	spans := int((readBytes-1)/c.StripeSize) + 2
	if spans > c.StripeCount {
		spans = c.StripeCount
	}
	return spans
}

// ReadersPerArray returns the worst-case number of concurrent readers
// sharing one array when procs processes each issue one mini-batch
// read. Random mini-batch offsets spread uniformly over stripes, so
// the expected load is procs·arraysPerRead/stripeCount (the paper's
// N/32·2 bound).
func (c Config) ReadersPerArray(procs int, readBytes int64) float64 {
	per := float64(c.ArraysPerRead(readBytes))
	if c.StripeCount == 1 {
		return float64(procs)
	}
	load := float64(procs) * per / float64(c.StripeCount)
	if load < 1 {
		load = 1
	}
	return load
}

// ReadTime returns the wall time for procs concurrent processes to
// each read readBytes of mini-batch data.
func (c Config) ReadTime(procs int, readBytes int64) float64 {
	if procs <= 0 || readBytes <= 0 {
		return 0
	}
	// ReadersPerArray clamps the per-array load at >= 1 reader, so the
	// per-process bandwidth ArrayBandwidth/readers·arraysPerRead can
	// never exceed one array's worth per spanned stripe — no extra cap
	// is needed.
	readers := c.ReadersPerArray(procs, readBytes)
	perProcBW := c.ArrayBandwidth / readers * float64(c.ArraysPerRead(readBytes))
	return float64(readBytes) / perProcBW
}

// AggregateBandwidth returns the total achieved read bandwidth with
// procs concurrent readers, bytes/second.
func (c Config) AggregateBandwidth(procs int, readBytes int64) float64 {
	t := c.ReadTime(procs, readBytes)
	if t == 0 {
		return 0
	}
	return float64(procs) * float64(readBytes) / t
}

// ExposedTime is the prefetch rule of Sec. V-B: each worker's I/O
// thread reads the next mini-batch while the current one trains, so
// only max(0, read − window) of a read is exposed, window being the
// compute it overlaps. Every exposed-read charge in the module is this
// function.
func ExposedTime(read, window float64) float64 {
	return max(0, read-window)
}

// StripePlan is one candidate of SelectStripe's layout sweep: a stripe
// count, the modeled concurrent read time of one mini-batch under it,
// and the read time left exposed after overlapping with hideWindow.
type StripePlan struct {
	StripeCount int
	ReadTime    float64
	Exposed     float64
}

// SelectStripe is the stripe-count advisor — the I/O analogue of the
// collective engine's α-β auto-bucket selector. It sweeps power-of-two
// stripe counts from 1 (single-split mode) up to base.Arrays, prices
// each layout's concurrent mini-batch read with ReadTime(procs,
// readBytes), and picks the one minimizing the exposed read time
// max(0, read − hideWindow) — hideWindow being the modeled step the
// prefetch can hide behind. The tie-break is deterministic and
// documented: an exact tie on the exposed estimate goes to the
// *smaller* stripe count (fewer arrays dedicated to the dataset file;
// once the read hides completely, wider striping buys nothing). The
// full candidate list is returned for audit (swtrain -explain-plan).
func SelectStripe(base Config, procs int, readBytes int64, hideWindow float64) (StripePlan, []StripePlan) {
	var cands []StripePlan
	for s := 1; s <= base.Arrays; s *= 2 {
		cfg := base
		cfg.StripeCount = s
		rt := cfg.ReadTime(procs, readBytes)
		cands = append(cands, StripePlan{StripeCount: s, ReadTime: rt, Exposed: ExposedTime(rt, hideWindow)})
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Exposed < best.Exposed {
			best = c
		}
	}
	return best, cands
}

// ImageNetBatchBytes returns the paper's working figure for a
// mini-batch of ImageNet images: "the data size for this mini-batch is
// around 192 MB" for 256 images, i.e. ~768 KB per raw image.
func ImageNetBatchBytes(images int) int64 {
	return int64(images) * 768 << 10
}
