package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the driver made into a layer. parent is the
// index of the enclosing span (-1 for a root); run is the op the call
// belongs to (-1 outside the timed loop), so the spans of one op share
// an identifier.
type span struct {
	name, layer string
	start, end  int64 // ns since the tracer was made
	parent, run int
}

// tracer records spans in memory on the host clock. A nil tracer
// records nothing: timed runs leave it nil, so tracing costs them one
// branch per call.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), run: -1} }

// begin opens a span as a child of the innermost open one and returns
// its id for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, layer: layer, parent: parent, run: t.run,
		start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// setRun tags the spans that follow with op i.
func (t *tracer) setRun(i int) {
	if t != nil {
		t.run = i
	}
}

// durations returns, sorted, the ns of every closed span called name
// in layer.
func (t *tracer) durations(layer, name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.layer == layer && s.name == name && s.end > 0 {
			d = append(d, float64(s.end-s.start))
		}
	}
	sort.Float64s(d)
	return d
}

// medianNS is the median duration of the spans called name, 0 if none.
func (t *tracer) medianNS(layer, name string) float64 {
	return quantile(t.durations(layer, name), 0.5)
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerSelf sums self time by layer over the spans under root (root
// included) and returns the layers sorted by name, their sums, and the
// total. With properly nested spans the total equals root's duration:
// no gap is unowned and nothing is counted twice.
func (t *tracer) layerSelf(root int) (layers []string, ns []int64, total int64) {
	self := t.selfTimes()
	under := make([]bool, len(t.spans))
	sums := map[string]int64{}
	for i, s := range t.spans {
		under[i] = i == root || (s.parent >= 0 && under[s.parent])
		if under[i] {
			sums[s.layer] += self[i]
			total += self[i]
		}
	}
	for l := range sums {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		ns = append(ns, sums[l])
	}
	return layers, ns, total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), which Perfetto opens beside the
// simulated-clock trace internal/obs writes. counts is written as
// trace metadata, keys sorted.
func (t *tracer) writeChrome(path string, counts map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"run_id":%d,"self_us":%.3f}}`,
			s.name, s.layer, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.run, float64(self[i])/1e3)
	}
	fmt.Fprint(w, "\n"+`],"otherData":{`)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q:%q", k, fmt.Sprint(counts[k]))
	}
	fmt.Fprint(w, "}}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of sorted by nearest rank below, so
// the lower quartile of two samples is the smaller one; 0 if empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
