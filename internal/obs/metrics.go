package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named counters and gauges and produces
// deterministic snapshots: metrics print sorted by name, so two runs
// with the same workload emit byte-identical `swtrain -metrics`
// blocks. Instruments are cheap (atomics) and creation is idempotent —
// asking for an existing name returns the same instrument.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	fcnts  map[string]*FloatCounter
	gauges map[string]*Gauge
	gfuncs map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		fcnts:  make(map[string]*FloatCounter),
		gauges: make(map[string]*Gauge),
		gfuncs: make(map[string]func() float64),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the simulator's packages
// instrument into.
func Default() *Registry { return defaultRegistry }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Inc()        { c.v.Add(1) }
func (c *Counter) Value() int64 {
	return c.v.Load()
}

// FloatCounter accumulates a float64 sum (e.g. exposed-comm µs).
type FloatCounter struct {
	mu sync.Mutex
	v  float64
}

func (c *FloatCounter) Add(x float64) {
	c.mu.Lock()
	c.v += x
	c.mu.Unlock()
}
func (c *FloatCounter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a set-to-latest float metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

func (g *Gauge) Set(x float64) {
	g.mu.Lock()
	g.v = x
	g.mu.Unlock()
}
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// FloatCounter returns (creating if needed) the named float counter.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.fcnts[name]
	if !ok {
		c = &FloatCounter{}
		r.fcnts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time —
// the bridge for values owned elsewhere (plan-cache hit counters).
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	r.gfuncs[name] = f
	r.mu.Unlock()
}

// Sample is one snapshotted metric line.
type Sample struct {
	Name  string
	Value string // pre-formatted, deterministic
}

// Snapshot returns every instrument's current value sorted by name.
// Integer counters print as integers; floats with %g (shortest exact
// round-trip).
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counts)+len(r.fcnts)+len(r.gauges)+len(r.gfuncs))
	for _, name := range sortedKeys(r.counts) {
		out = append(out, Sample{Name: name, Value: fmt.Sprintf("%d", r.counts[name].Value())})
	}
	for _, name := range sortedKeys(r.fcnts) {
		out = append(out, Sample{Name: name, Value: fmt.Sprintf("%g", r.fcnts[name].Value())})
	}
	for _, name := range sortedKeys(r.gauges) {
		out = append(out, Sample{Name: name, Value: fmt.Sprintf("%g", r.gauges[name].Value())})
	}
	for _, name := range sortedKeys(r.gfuncs) {
		out = append(out, Sample{Name: name, Value: fmt.Sprintf("%g", r.gfuncs[name]())})
	}
	r.mu.Unlock()
	// The per-kind blocks above are each name-sorted; this merge sort
	// interleaves the kinds. With sorted-keys iteration the input
	// order is deterministic, so equal names (two kinds sharing one
	// name) no longer tie-break on map iteration order.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sortedKeys returns m's keys in sorted order: the sanctioned way to
// iterate a map wherever the result feeds deterministic output (the
// maporder contract).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Write prints the snapshot as "name value" lines, one per metric,
// sorted by name.
func (r *Registry) Write(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}
