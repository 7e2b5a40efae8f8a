package swnode

import (
	"bytes"
	"encoding/json"
	"testing"

	"swcaffe/internal/obs"
)

// Tracing a DES node must record one span per successful launch on the
// CG track it was placed on, covering exactly the modeled
// [SimStart, SimEnd] window — and must not move the modeled clocks.
func TestTracedDESLaunchSpans(t *testing.T) {
	run := func(tr *obs.Tracer) (simTimes []float64) {
		n := NewDESNode(nil)
		defer n.Close()
		n.SetTracer(tr, 3)
		s := n.NewStream()
		s.SetLabel("pass")
		var events []*Event
		for i := 0; i < 4; i++ {
			events = append(events, s.LaunchFunc(1, func() float64 { return 1e-6 }))
		}
		n.Sync()
		for _, e := range events {
			simTimes = append(simTimes, e.SimStart(), e.SimEnd())
		}
		return simTimes
	}

	plain := run(nil)
	tr := obs.New()
	traced := run(tr)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("tracing moved modeled clocks: %v vs %v", plain, traced)
		}
	}
	if tr.Len() != 4 {
		t.Fatalf("got %d spans, want 4", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			spans++
			if ev["name"] != "pass" {
				t.Fatalf("span name = %v, want pass", ev["name"])
			}
			if int(ev["pid"].(float64)) != 3 {
				t.Fatalf("span pid = %v, want 3", ev["pid"])
			}
		}
	}
	if spans != 4 {
		t.Fatalf("exported %d spans, want 4", spans)
	}
}

// Pooled nodes emit the same spans from real CoreGroup launches, and a
// failed launch emits none (its window never completed).
func TestTracedPooledLaunchAndFailure(t *testing.T) {
	n := NewNode(nil)
	defer n.Close()
	tr := obs.New()
	n.SetTracer(tr, 0)

	s := n.PinnedStream(1)
	s.LaunchFunc(1, func() float64 { return 2e-6 })
	n.Sync()
	if tr.Len() != 1 {
		t.Fatalf("got %d spans, want 1", tr.Len())
	}

	bad := n.PinnedStream(2)
	bad.LaunchFunc(1, func() float64 { panic("boom") })
	func() {
		defer func() { recover() }()
		n.Sync()
	}()
	if tr.Len() != 1 {
		t.Fatalf("failed launch emitted a span: %d total", tr.Len())
	}
}

// Detaching mid-run stops span emission for later launches only.
func TestSetTracerDetach(t *testing.T) {
	n := NewDESNode(nil)
	defer n.Close()
	tr := obs.New()
	n.SetTracer(tr, 0)
	s := n.NewStream()
	s.LaunchFunc(1, func() float64 { return 1e-6 })
	n.Sync()
	n.SetTracer(nil, 0)
	s2 := n.NewStream()
	s2.LaunchFunc(1, func() float64 { return 1e-6 })
	n.Sync()
	if tr.Len() != 1 {
		t.Fatalf("got %d spans after detach, want 1", tr.Len())
	}
}
