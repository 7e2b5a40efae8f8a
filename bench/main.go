// Command bench is the repository's benchmark: five workloads measured
// on two clocks. The simulated clock is the product (modeled step
// times, makespans, throughputs — they repeat exactly); the host clock
// is what producing that answer costs (ops/s, bytes and mallocs per
// op, peak RSS, set-up). See README.md for the workloads, the metrics
// and what each layer's numbers should move.
//
//	go run ./bench -workload all -seed 1
//	go run ./bench -workload dist_train_p8 -trace 1
//	go run ./bench -repeat 2
//
// Every layer is measured from outside, by timing calls into its
// public functions: one closed-loop client on one goroutine, and no
// file outside bench/ is instrumented.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
)

// outDir holds traces, profiles and scratch files, relative to the
// repository root the benchmark runs from.
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all (one process each, one at a time)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 8, "how long the timed loop measures")
		trace   = flag.Int("trace", 0, "1: the traced run — per-layer metrics and bench/out/trace-<workload>.json")
		repeat  = flag.Int("repeat", 1, "run the whole set N times; exit 1 if two sets differ by more than a metric's bound")
		cpuProf = flag.Bool("cpuprofile", false, "write bench/out/cpu-<workload>.pprof")
		memProf = flag.Bool("memprofile", false, "write bench/out/mem-<workload>.pprof")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		if err := single(w, uint64(*seed), *seconds, *trace == 1, *cpuProf, *memProf); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := sets(*repeat, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// single runs one workload in this process and prints its metrics,
// the last line being the result object the gate reads.
func single(w *workload, seed uint64, seconds float64, traced, cpuProf, memProf bool) error {
	e := &env{seed: seed, seconds: seconds, outDir: outDir, batch: w.batch, log: os.Stdout}
	defs := endToEnd
	if traced {
		e.tr, defs = newTracer(), perLayer
	}
	if cpuProf {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, "cpu-"+w.Name+".pprof"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runWorkload(e, w)
	if err != nil {
		return err
	}
	if memProf {
		f, err := os.Create(filepath.Join(outDir, "mem-"+w.Name+".pprof"))
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return report(os.Stdout, w, res, defs)
}

// report prints every metric of defs by name with its unit, the op
// counts and the digest, then the one-line JSON result.
func report(out io.Writer, w *workload, res *result, defs []metricDef) error {
	fmt.Fprintf(out, "workload %s: attempted %d ops, failed %d, op_fail_frac %g\n", w.Name,
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(out, "sim_digest %s\n", res.SimDigest)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", w.Name, d.Name, v)
		}
		fmt.Fprintf(out, "%-40s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// setResult is what one child process reported.
type setResult struct {
	digest  string
	failed  int
	metrics map[string]float64
}

// sets runs every workload, each in its own process and one at a time
// so that set-up time and peak RSS are per workload, n times over, and
// compares the end-to-end metrics of consecutive sets against their
// bounds.
func sets(n int, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var prev map[string]setResult
	var diffs []string
	for k := 0; k < n; k++ {
		cur := map[string]setResult{}
		for _, w := range workloads {
			r, err := child(self, w.Name, args)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			cur[w.Name] = r
			if r.failed > 0 {
				diffs = append(diffs, fmt.Sprintf("%s: %d failed ops", w.Name, r.failed))
			}
			if prev != nil {
				diffs = append(diffs, compare(w.Name, prev[w.Name], r)...)
			}
		}
		prev = cur
	}
	for _, d := range diffs {
		fmt.Println("DIFFERS", d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%d metrics outside their bounds", len(diffs))
	}
	return nil
}

// child runs one workload in a fresh process, relays its output and
// parses the result line.
func child(self, name string, args []string) (setResult, error) {
	cmd := exec.Command(self, append(append([]string{}, args...), "-workload", name, "-repeat", "1")...)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return setResult{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line struct {
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return setResult{}, fmt.Errorf("result line: %w", err)
	}
	r := setResult{failed: line.Failed, metrics: map[string]float64{}}
	for k, v := range line.Metrics {
		r.metrics[k] = v.Value
	}
	for _, l := range lines {
		if d, ok := bytes.CutPrefix(l, []byte("sim_digest ")); ok {
			r.digest = string(d)
		}
	}
	return r, nil
}

// compare names every end-to-end metric of workload name on which b is
// worse than a, or a worse than b, by more than the metric's bound, and
// a changed digest.
func compare(name string, a, b setResult) []string {
	var diffs []string
	if a.digest != b.digest {
		diffs = append(diffs, fmt.Sprintf("%s: sim_digest %s vs %s", name, a.digest, b.digest))
	}
	for _, d := range endToEnd {
		x, okx := a.metrics[d.Name]
		y, oky := b.metrics[d.Name]
		if !okx || !oky {
			continue // a traced set reports per-layer metrics only
		}
		if math.Abs(x-y) > d.Bound*math.Min(math.Abs(x), math.Abs(y)) {
			diffs = append(diffs, fmt.Sprintf("%s: %s %g vs %g %s (bound %g)", name, d.Name, x, y, d.Unit, d.Bound))
		}
	}
	return diffs
}
