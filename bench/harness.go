package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// env is what a run hands its workload.
type env struct {
	seed    uint64
	seconds float64
	smoke   bool    // test scale: small p, fixed op count
	batch   int     // ops per timed batch; the first batch feeds the digest
	outDir  string  // traces, profiles and scratch files go here
	tr      *tracer // nil unless this is the traced run
	log     io.Writer
}

// instance is one set-up workload. run makes op i's calls into the
// program and nothing else, so its time is the program's; check
// verifies what run produced and is not timed.
type instance interface {
	run(i int)
	check(i int) error
	// simPerOp is the modeled time of one op in simulated µs, taken
	// from the first batch so that it does not depend on how many ops
	// a run had time for.
	simPerOp() float64
	// digest is the SHA-256 over every simulated statistic of the
	// set-up and the first batch.
	digest() string
	// probe runs the isolated per-layer probes at this workload's
	// shapes and adds the per-layer metrics to m.
	probe(m map[string]float64)
	close()
}

// simLog hashes simulated statistics, floats by their bits, without
// allocating: check calls it inside the measured loop.
type simLog struct {
	h   hash.Hash
	buf [8]byte
}

func newSimLog() *simLog { return &simLog{h: sha256.New()} }

func (s *simLog) u64(name string, v uint64) {
	io.WriteString(s.h, name)
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.h.Write(s.buf[:])
}

func (s *simLog) f64(name string, v float64) { s.u64(name, math.Float64bits(v)) }

func (s *simLog) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// result is what one run of one workload measured.
type result struct {
	Attempted int
	Failed    int
	SimDigest string
	Metrics   map[string]float64
}

// loopStats is one measured loop of batches.
type loopStats struct {
	ops, failed int
	batchNS     []float64 // sorted
}

func (l loopStats) opsPerSec(batch int) float64 {
	return float64(batch) / (quantile(l.batchNS, 0.25) / 1e9)
}

// loop runs whole batches of ops until their timed part has lasted for
// the given seconds and there are at least minBatches of them (smoke:
// exactly one batch). The time of a batch is the sum of its run calls;
// check is outside it.
func loop(e *env, inst instance, seconds float64, minBatches, first int, failures *[]error) loopStats {
	var st loopStats
	var timed time.Duration
	for {
		var batch time.Duration
		for j := 0; j < e.batch; j++ {
			i := first + st.ops
			e.tr.setRun(i)
			id := e.tr.begin("bench", "op")
			t0 := time.Now()
			inst.run(i)
			batch += time.Since(t0)
			e.tr.end(id)
			id = e.tr.begin("bench", "check")
			err := inst.check(i)
			e.tr.end(id)
			if err != nil {
				st.failed++
				if len(*failures) < 5 {
					*failures = append(*failures, fmt.Errorf("op %d: %w", i, err))
				}
			}
			st.ops++
		}
		st.batchNS = append(st.batchNS, float64(batch))
		timed += batch
		if e.smoke || (timed.Seconds() >= seconds && len(st.batchNS) >= minBatches) {
			break
		}
	}
	e.tr.setRun(-1)
	sort.Float64s(st.batchNS)
	return st
}

// A run sets its workload up at least minSetUps times, and again until
// the set-ups have taken setUpBudget in all (maxSetUps at most): setup_s
// is their median, so neither one page-fault storm nor the jitter of a
// 20 ms set-up decides it.
const (
	minSetUps   = 5
	maxSetUps   = 50
	setUpBudget = time.Second
)

// setUp builds the workload repeatedly, keeps the last instance and
// returns the median build time in seconds.
func setUp(e *env, w *workload) (instance, float64, error) {
	var inst instance
	var secs []float64
	var total time.Duration
	for len(secs) < minSetUps || (total < setUpBudget && len(secs) < maxSetUps) {
		if inst != nil {
			inst.close()
		}
		id := e.tr.begin("bench", "setup")
		t0 := time.Now()
		var err error
		inst, err = w.build(e)
		d := time.Since(t0)
		e.tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		secs = append(secs, d.Seconds())
		total += d
		if e.smoke {
			break
		}
	}
	sort.Float64s(secs)
	return inst, secs[len(secs)/2], nil
}

// hostCounters is a snapshot of the process-wide host-side counters.
type hostCounters struct {
	mem       runtime.MemStats
	gcS, cpuS float64 // runtime/metrics: GC and total cpu-seconds
	userSysS  float64 // rusage
	peakRSSMB float64
}

func readHost() hostCounters {
	var h hostCounters
	runtime.ReadMemStats(&h.mem)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	if cpu[0].Value.Kind() == metrics.KindFloat64 && cpu[1].Value.Kind() == metrics.KindFloat64 {
		h.gcS, h.cpuS = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.userSysS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
		h.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return h
}

// hostMetrics adds the metrics that are differences of two snapshots
// around ops measured ops.
func hostMetrics(m map[string]float64, a, b hostCounters, ops int) {
	n := float64(ops)
	m["host_alloc_bytes_per_op"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / n
	m["host_allocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / n
	m["host_peak_rss_mb"] = b.peakRSSMB
	m["runtime.peak_rss_mb"] = b.peakRSSMB
	m["runtime.cpu_s_per_op"] = (b.userSysS - a.userSysS) / n
	m["gc.cycles_per_op"] = float64(b.mem.NumGC-a.mem.NumGC) / n
	m["gc.pause_ms_per_op"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6 / n
	if b.cpuS > a.cpuS {
		m["gc.cpu_frac"] = (b.gcS - a.gcS) / (b.cpuS - a.cpuS)
	}
}

// runWorkload is one run of one workload in this process: set-up,
// then the timed loop with tracing off, or — when e.tr is set — a
// short untraced loop, a traced loop of the same length and the
// isolated probes.
func runWorkload(e *env, w *workload) (*result, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	inst, setupS, err := setUp(e, w)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res := &result{Metrics: map[string]float64{}}
	m := res.Metrics
	var failures []error

	runtime.GC()
	if e.tr == nil {
		before := readHost()
		// Two batches at least, so that the lower quartile can drop a
		// disturbed one even when a single op outlasts the budget.
		st := loop(e, inst, e.seconds, 2, 0, &failures)
		after := readHost()
		hostMetrics(m, before, after, st.ops)
		loopMetrics(m, st)
		m["host_ops_per_s"] = st.opsPerSec(e.batch)
		m["setup_s"] = setupS
		res.Attempted, res.Failed = st.ops, st.failed
	} else {
		tr := e.tr
		e.tr = nil
		plain := loop(e, inst, e.seconds/4, 1, 0, &failures)
		e.tr = tr
		before := readHost()
		root := tr.begin("bench", "run")
		traced := loop(e, inst, e.seconds/4, 1, plain.ops, &failures)
		tr.end(root)
		after := readHost()
		hostMetrics(m, before, after, traced.ops)
		loopMetrics(m, traced)
		m["bench.trace_overhead_pct"] = 100 * (plain.opsPerSec(e.batch)/traced.opsPerSec(e.batch) - 1)
		layers, ns, total := tr.layerSelf(root)
		rootNS := tr.spans[root].end - tr.spans[root].start
		m["bench.span_self_sum_pct"] = 100 * float64(total) / float64(rootNS)
		fmt.Fprintf(e.log, "self time by layer over %d traced ops (%.3f s):\n", traced.ops, float64(rootNS)/1e9)
		for i, l := range layers {
			fmt.Fprintf(e.log, "  %-12s %10.3f ms %6.2f %%\n", l, float64(ns[i])/1e6, 100*float64(ns[i])/float64(rootNS))
		}
		id := tr.begin("bench", "probes")
		inst.probe(m)
		tr.end(id)
		res.Attempted, res.Failed = plain.ops+traced.ops, plain.failed+traced.failed
		path := filepath.Join(e.outDir, "trace-"+w.Name+".json")
		if err := tr.writeChrome(path, m); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(e.log, "trace written to %s (%d spans)\n", path, len(tr.spans))
	}
	m["sim_us_per_op"] = inst.simPerOp()
	res.SimDigest = inst.digest()
	for _, err := range failures {
		fmt.Fprintf(e.log, "FAILED %s: %v\n", w.Name, err)
	}
	return res, nil
}

func loopMetrics(m map[string]float64, st loopStats) {
	m["bench.batches"] = float64(len(st.batchNS))
	m["bench.batch_p50_ms"] = quantile(st.batchNS, 0.5) / 1e6
	m["bench.batch_p90_ms"] = quantile(st.batchNS, 0.9) / 1e6
}

// timeN calls fn n times and returns the median call in ns.
func timeN(n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	sort.Float64s(d)
	return quantile(d, 0.5)
}

// allocN calls fn n times and returns the heap bytes allocated per
// call.
func allocN(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

func finite(v float32) bool { return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) }
