package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	// None of these may panic.
	tr.Span(0, 0, "x", 0, 1)
	tr.Instant(0, 0, "x", 0)
	tr.NameProcess(0, "p")
	tr.NameThread(0, 0, "t")
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("nil tracer has spans")
	}
	if err := tr.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("nil tracer WriteJSON should error, not silently succeed")
	}
}

func TestNilTracerSpanDoesNotAllocate(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		// The call-site pattern every hot path uses: guard first, so
		// the variadic attr slice is never built when disabled.
		if tr != nil {
			tr.Span(0, 0, "x", 0, 1, Str("k", "v"))
		}
	})
	if allocs != 0 {
		t.Fatalf("guarded nil-tracer span path allocates %v allocs/op", allocs)
	}
}

func TestWriteJSONShape(t *testing.T) {
	tr := New()
	tr.NameProcess(0, "rank 0")
	tr.NameThread(0, 0, "CG0")
	tr.Span(0, 0, "forward", 1e-6, 3e-6, Str("layer", "conv1"), I64("pass", 0))
	tr.Instant(0, 1, "fault", 2e-6, I64("rank", 0))

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // 2 metadata + 1 span + 1 instant
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	var sawX, sawI bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			sawX = true
			if ev["name"] != "forward" {
				t.Fatalf("span name = %v", ev["name"])
			}
			if ts := ev["ts"].(float64); ts != 1.0 { // 1e-6 s -> 1 µs
				t.Fatalf("span ts = %v µs, want 1", ts)
			}
			if dur := ev["dur"].(float64); math.Abs(dur-2.0) > 1e-9 {
				t.Fatalf("span dur = %v µs, want 2", dur)
			}
			args := ev["args"].(map[string]any)
			if args["layer"] != "conv1" {
				t.Fatalf("span args = %v", args)
			}
		case "i":
			sawI = true
			if ev["s"] != "t" {
				t.Fatalf("instant scope = %v, want thread", ev["s"])
			}
		}
	}
	if !sawX || !sawI {
		t.Fatalf("missing event kinds: span=%v instant=%v", sawX, sawI)
	}
}

func TestWriteJSONDeterministicAcrossInsertionOrder(t *testing.T) {
	emit := func(order []int) string {
		tr := New()
		tr.NameProcess(1, "rank 1")
		tr.NameProcess(0, "rank 0")
		spans := []struct {
			pid  int
			name string
			ts   float64
		}{
			{0, "a", 1e-6}, {1, "b", 1e-6}, {0, "c", 2e-6}, {1, "d", 3e-6},
		}
		for _, i := range order {
			s := spans[i]
			tr.Span(s.pid, 0, s.name, s.ts, s.ts+1e-6)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := emit([]int{0, 1, 2, 3})
	b := emit([]int{3, 2, 1, 0})
	if a != b {
		t.Fatalf("export depends on insertion order:\n%s\nvs\n%s", a, b)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const ranks, per = 8, 50
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Span(r, i%4, "op", float64(i), float64(i+1), I64("i", int64(i)))
			}
		}(r)
	}
	wg.Wait()
	if tr.Len() != ranks*per {
		t.Fatalf("got %d spans, want %d", tr.Len(), ranks*per)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Fatal("missing traceEvents key")
	}
}

func TestResetKeepsTrackNames(t *testing.T) {
	tr := New()
	tr.NameProcess(0, "rank 0")
	tr.Span(0, 0, "x", 0, 1)
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset left spans behind")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rank 0") {
		t.Fatal("Reset dropped track names")
	}
}
