package allreduce

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"swcaffe/internal/detrand"
	"swcaffe/internal/simnet"
	"swcaffe/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/collectives.golden from the current collectives")

const goldenPath = "testdata/collectives.golden"

// TestCollectivesGolden pins every collective to the bits it produced
// when the file was written: one line per (algorithm, p, q, mapping,
// length, segment) case carrying a SHA-256 prefix over every rank's
// output bits, every rank's clock bits, the makespan and the traffic
// census of a goroutine-backend run on full-precision random inputs.
// The backend identity tests compare one backend with the other, which
// says nothing once both run the same description; this file is the
// reference neither can move. It goes through the one-shot forms only
// (ByName, and Schedule.oneShot for the interior segments), the ones
// whose contract has not changed since the file was generated.
// Regenerate with -update only for an intended change of schedule,
// association order or cost model.
func TestCollectivesGolden(t *testing.T) {
	var got bytes.Buffer
	cases := 0
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 16, 24, 31, 32, 40, 64} {
		for _, q := range []int{1, 2, 3, 4, 8, 256} {
			net := sunwayQ(q)
			for _, m := range []topology.Mapping{topology.AdjacentMapping{Q: q}, topology.RoundRobinMapping{Q: q}} {
				cl := simnet.NewCluster(net, m, p)
				// Empty, shorter than p, ragged, long.
				for _, n := range []int{0, p - 1, 4*p + 3, 257} {
					inputs := goldenInputs(p, q, n)
					for _, name := range Names() {
						alg, _ := ByName(name)
						goldenCase(&got, cl, fmt.Sprintf("%s p=%d q=%d %s n=%d", name, p, q, m.Name(), n),
							func(nd *simnet.Node) []float32 { return alg(nd, inputs[nd.Rank]) })
					}
					// Interior segments: the middle third of each chunk partition.
					pb := ChunkBounds(n, p)
					lo, hi := pb[p/3], pb[(2*p+2)/3]
					goldenCase(&got, cl, fmt.Sprintf("%s p=%d q=%d %s n=%d [%d,%d)", NameRing, p, q, m.Name(), n, lo, hi),
						func(nd *simnet.Node) []float32 { return schedRing.oneShot(nd, inputs[nd.Rank][lo:hi], lo, n) })
					k := topology.MinGroupSize(m, p)
					hb := ChunkBounds(n, k)
					hlo, hhi := hb[k/3], hb[(2*k+2)/3]
					goldenCase(&got, cl, fmt.Sprintf("%s p=%d q=%d %s n=%d [%d,%d)", NameHierarchical, p, q, m.Name(), n, hlo, hhi),
						func(nd *simnet.Node) []float32 {
							return schedHierarchical.oneShot(nd, inputs[nd.Rank][hlo:hhi], hlo, n)
						})
					cases += len(Names()) + 2
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", cases, goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	wantLines, gotLines := bytes.Split(want, []byte("\n")), bytes.Split(got.Bytes(), []byte("\n"))
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s holds %d lines, the grid produces %d", goldenPath, len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cases differ from %s", bad, cases, goldenPath)
	}
}

// goldenInputs draws p full-precision vectors in [-1, 1) — arithmetic
// only, so the bits do not depend on the platform's math library.
func goldenInputs(p, q, n int) [][]float32 {
	rng := detrand.New(uint64(p)<<40 | uint64(q)<<20 | uint64(n))
	inputs := make([][]float32, p)
	for r := range inputs {
		inputs[r] = make([]float32, n)
		for i := range inputs[r] {
			inputs[r][i] = 2*rng.Float32() - 1
		}
	}
	return inputs
}

// goldenCase runs body on cl and appends the case's line to w.
func goldenCase(w *bytes.Buffer, cl *simnet.Cluster, label string, body func(nd *simnet.Node) []float32) {
	res, outs := cl.RunGather(body)
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for r, out := range outs {
		put(uint64(len(out)))
		for _, v := range out {
			put(uint64(math.Float32bits(v)))
		}
		put(math.Float64bits(res.Clocks[r]))
	}
	put(math.Float64bits(res.Time))
	put(uint64(res.Msgs))
	put(uint64(res.CrossMsgs))
	put(uint64(res.CrossBytes))
	fmt.Fprintf(w, "%s %x\n", label, h.Sum(nil)[:6])
}
