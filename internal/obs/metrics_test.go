package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstrumentsIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.FloatCounter("f") != r.FloatCounter("f") {
		t.Fatal("FloatCounter not idempotent")
	}
}

func TestSnapshotSortedAndFormatted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Gauge("a.gauge").Set(1.5)
	r.FloatCounter("m.float").Add(2.25)
	r.GaugeFunc("k.func", func() float64 { return 7 })

	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	want := []string{"a.gauge", "k.func", "m.float", "z.count"}
	if len(names) != len(want) {
		t.Fatalf("got %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", names, want)
		}
	}
	byName := map[string]string{}
	for _, s := range snap {
		byName[s.Name] = s.Value
	}
	if byName["z.count"] != "3" {
		t.Fatalf("counter value = %q", byName["z.count"])
	}
	if byName["a.gauge"] != "1.5" {
		t.Fatalf("gauge value = %q", byName["a.gauge"])
	}
	if byName["k.func"] != "7" {
		t.Fatalf("gauge func value = %q", byName["k.func"])
	}
}

func TestWrite(t *testing.T) {
	r := NewRegistry()
	r.Counter("train.steps").Add(5)
	r.Counter("elastic.faults_injected").Inc()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "elastic.faults_injected 1\ntrain.steps 5\n"
	if buf.String() != want {
		t.Fatalf("Write = %q, want %q", buf.String(), want)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c").Inc()
				r.FloatCounter("f").Add(0.5)
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.FloatCounter("f").Value(); got != 800 {
		t.Fatalf("float counter = %g, want 800", got)
	}
}

func TestResetClears(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.GaugeFunc("y", func() float64 { return 1 })
	r.Reset()
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot after Reset = %v", snap)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "" {
		t.Fatalf("Write after Reset = %q", buf.String())
	}
}
