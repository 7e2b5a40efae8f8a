package train

import (
	"sync"

	"swcaffe/internal/dataset"
	"swcaffe/internal/tensor"
)

// inputPrefetcher is the functional half of the input pipeline: the
// per-worker I/O thread of paper Sec. V-B, one for both trainers. One
// dedicated goroutine fills a per-worker staging buffer with iteration
// k+1's shards while step k trains; the trainer's load becomes a copy
// out of the staging buffer plus a request for the next iteration —
// double buffering, staging against the live worker tensors. The
// shards are the deterministic dataset.Shard views (exactly the direct
// path's indices), so a prefetched run is bit-identical to an
// unprefetched one — losses, parameters, StepStats; the race-enabled
// goldens pin it. The *modeled* read times are priced off this thread
// (io.go, CGTrainer.AttachInput): this thread moves the bytes, the
// analytic model prices them, and neither observes the other.
type inputPrefetcher struct {
	ds     dataset.Dataset
	shards []dataset.Shard
	data   []*tensor.Tensor
	labels []*tensor.Tensor

	mu      sync.Mutex
	cond    *sync.Cond
	have    int // iteration currently staged (-1: nothing yet)
	want    int // iteration the trainer asked for next
	stopped bool
}

// newInputPrefetcher starts the prefetch thread for workers: worker w
// reads rank w.Rank's shard of ranks, batch examples each, into
// staging shaped like its input tensors.
func newInputPrefetcher(ds dataset.Dataset, workers []*Worker, ranks, batch int) *inputPrefetcher {
	p := &inputPrefetcher{ds: ds, have: -1, want: -1}
	for _, w := range workers {
		p.shards = append(p.shards, dataset.Shard{DS: ds, Rank: w.Rank, Ranks: ranks, Batch: batch})
		d, l := w.Data, w.Labels
		p.data = append(p.data, tensor.New(d.N, d.C, d.H, d.W))
		p.labels = append(p.labels, tensor.New(l.N, l.C, l.H, l.W))
	}
	p.cond = sync.NewCond(&p.mu)
	//swvet:ignore straygo: the input-pipeline prefetch thread of paper Sec. V-B; bounded by stop, which both trainers' Close (and DistTrainer.Shrink) call
	go p.loop()
	return p
}

// AttachInput wires ds as the trainer's prefetched input pipeline:
// from now on LoadShards(ds, it) drains the staging buffer and kicks
// off iteration it+1's read on the prefetch thread instead of filling
// the worker tensors inline. Loads from any *other* dataset fall back
// to the direct path. The thread is stopped by Close (and detached by
// Shrink, whose re-ranked world invalidates the staged shards).
func (t *DistTrainer) AttachInput(ds dataset.Dataset) {
	t.detachInput()
	t.prefetch = newInputPrefetcher(ds, t.Workers, t.cfg.Nodes, t.cfg.SubBatch)
}

// detachInput stops and drops the prefetch thread (idempotent).
func (t *DistTrainer) detachInput() {
	t.prefetch.stop()
	t.prefetch = nil
}

func (p *inputPrefetcher) loop() {
	for {
		p.mu.Lock()
		for (p.want == p.have || p.want < 0) && !p.stopped {
			p.cond.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		it := p.want
		p.mu.Unlock()

		// Fill outside the lock: this is the prefetch "I/O thread". The
		// staging buffers are only read by load() after have == it is
		// published under the lock below, so the fill races nothing.
		for r := range p.shards {
			p.shards[r].Load(it, p.data[r], p.labels[r])
		}

		p.mu.Lock()
		p.have = it
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// load copies iteration it's staged shards into the worker tensors and
// requests it+1. The steady-state pattern — load(k) after load(k-1) —
// finds the staging already filled and never blocks on I/O; a cold
// start or an out-of-order iteration (a post-restore replay) demands
// the right batch and waits for the thread to produce it.
func (p *inputPrefetcher) load(it int, workers []*Worker) {
	p.mu.Lock()
	if p.want != it {
		p.want = it
		p.cond.Broadcast()
	}
	for p.have != it && !p.stopped {
		p.cond.Wait()
	}
	if p.stopped {
		p.mu.Unlock()
		panic("train: input load on a closed trainer's prefetcher")
	}
	for r, w := range workers {
		w.Data.CopyFrom(p.data[r])
		w.Labels.CopyFrom(p.labels[r])
	}
	p.want = it + 1
	p.cond.Broadcast()
	p.mu.Unlock()
}

// stop terminates the prefetch goroutine; the prefetcher cannot be
// reused. A nil prefetcher (nothing attached) is a no-op.
func (p *inputPrefetcher) stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
