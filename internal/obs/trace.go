// Package obs is the simulator's tracer: spans and instants keyed to
// the *simulated* clock, never wall time. The
// paper's whole argument is a time decomposition — where each
// microsecond of a step goes at scale — and every signal already
// exists internally (swnode's [SimStart, SimEnd] launch DAG, simnet's
// traffic census, the collective engine's bucket layout); this package
// is where those signals become inspectable instead of folded into a
// four-field summary.
//
// Two hard constraints shape the API, both pinned by benchmarks and
// race-enabled goldens in the packages that emit into it:
//
//   - A nil *Tracer is the disabled state and must cost nothing on hot
//     paths: every emitter guards with a nil check, and no call below
//     allocates when the tracer is nil.
//   - An enabled tracer observes modeled times — it never perturbs
//     them. Tracing a run leaves parameters and StepStats bit-identical
//     to the untraced run.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Attr is one key=value span attribute. Values are strings, integers
// or floats (anything else is stringified on export).
type Attr struct {
	Key   string
	Value any
}

// Str, I64 and F64 build span attributes without the caller spelling
// the struct literal.
func Str(k, v string) Attr         { return Attr{Key: k, Value: v} }
func I64(k string, v int64) Attr   { return Attr{Key: k, Value: v} }
func F64(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// span is one recorded event: a duration slice on a (pid, tid) track,
// or an instant marker (dur < 0).
type span struct {
	pid, tid int
	name     string
	ts, dur  float64 // simulated seconds; dur < 0 marks an instant
	attrs    []Attr
}

// Tracer collects spans keyed to the simulated clock and exports them
// as Chrome trace-event JSON (the format ui.perfetto.dev and
// chrome://tracing open directly). Tracks follow the trace-event
// process/thread model: pid identifies a rank (or a synthetic
// cluster-level track), tid a lane within it (a CoreGroup, the comm
// lane, the event lane). All methods are safe for concurrent use from
// rank and launch goroutines and are no-ops on a nil receiver.
type Tracer struct {
	mu      sync.Mutex
	spans   []span
	procs   map[int]string
	threads map[[2]int]string
}

// New returns an empty enabled tracer.
func New() *Tracer {
	return &Tracer{procs: make(map[int]string), threads: make(map[[2]int]string)}
}

// Span records a completed [start, end] slice (simulated seconds) on
// the (pid, tid) track.
func (t *Tracer) Span(pid, tid int, name string, start, end float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{pid: pid, tid: tid, name: name, ts: start, dur: end - start, attrs: attrs})
	t.mu.Unlock()
}

// Instant records a zero-duration marker at ts (simulated seconds) on
// the (pid, tid) track — checkpoints, faults, shrinks.
func (t *Tracer) Instant(pid, tid int, name string, ts float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{pid: pid, tid: tid, name: name, ts: ts, dur: -1, attrs: attrs})
	t.mu.Unlock()
}

// NameProcess labels a pid track ("rank 3", "cluster") in the
// exported trace. Last write wins; safe to call repeatedly.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// NameThread labels a (pid, tid) lane ("CG0", "comm").
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Len returns the number of recorded spans and instants.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset drops every recorded span, keeping track names.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// traceEvent is one exported Chrome trace-event object. Timestamps
// are microseconds (the unit the format fixes); the simulated clocks
// are seconds, converted on export.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON exports the trace as Chrome trace-event JSON. The output
// is deterministic for a deterministic span set: events are sorted by
// (ts, pid, tid, name) regardless of the host-goroutine arrival order,
// and encoding/json emits map keys sorted.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on a nil tracer")
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	procs := make(map[int]string, len(t.procs))
	for k, v := range t.procs {
		procs[k] = v
	}
	threads := make(map[[2]int]string, len(t.threads))
	for k, v := range t.threads {
		threads[k] = v
	}
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		return a.name < b.name
	})

	events := make([]traceEvent, 0, len(spans)+len(procs)+len(threads))
	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": procs[pid]}})
	}
	tkeys := make([][2]int, 0, len(threads))
	for k := range threads {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i][0] != tkeys[j][0] {
			return tkeys[i][0] < tkeys[j][0]
		}
		return tkeys[i][1] < tkeys[j][1]
	})
	for _, k := range tkeys {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1],
			Args: map[string]any{"name": threads[k]}})
	}
	for _, s := range spans {
		ev := traceEvent{Name: s.name, Ts: s.ts * 1e6, Pid: s.pid, Tid: s.tid}
		if s.dur < 0 {
			ev.Ph, ev.S = "i", "t"
		} else {
			ev.Ph = "X"
			dur := s.dur * 1e6
			ev.Dur = &dur
		}
		if len(s.attrs) > 0 {
			ev.Args = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	})
}

// WriteFile exports the trace to path (see WriteJSON).
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return fmt.Errorf("obs: WriteFile on a nil tracer")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
