package swdnn

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"swcaffe/internal/detrand"
	"swcaffe/internal/sw26010"
)

// The mesh oracle. testdata/mesh_oracle.golden holds one record per
// kernel launch: the simulated time in hex, every Stats field and an
// FNV-1a hash of the output's float32 bits. The kernels are GEMMRun on
// the cross-validation shapes (the ten fixed ones and the 16 drawn from
// the default -gemm-seed), SumRun at ragged lengths, Im2colRun and
// ConvExplicitRun. Every record is exact, so any change to the launch
// engine that moves a clock, a counter or an output bit fails here.
// Regenerate with -update-mesh only for an intended timing-model change.

var updateMesh = flag.Bool("update-mesh", false, "rewrite testdata/mesh_oracle.golden from the current engine")

const meshOraclePath = "testdata/mesh_oracle.golden"

// oracleGEMMSeed is the -gemm-seed default, fixed here so the golden
// does not follow the flag.
const oracleGEMMSeed = 20261017

// meshCase is one oracle kernel: run executes it on cg and returns its
// simulated time and output; ldm lists the LDM buffer sizes (float32
// slots) one CPE of its launches allocates.
type meshCase struct {
	name string
	ldm  []int
	run  func(cg *sw26010.CoreGroup) (float64, []float32)
}

// oracleData returns n values in [-0.5, 0.5) drawn from seed.
func oracleData(seed uint64, n int) []float32 {
	rng := detrand.New(seed)
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32() - 0.5
	}
	return s
}

// gemmLDM returns the per-CPE tile sizes gemmPadded allocates for the
// plan of an m×k×n GEMM.
func gemmLDM(m, k, n int) []int {
	b := GEMMPlan(sw26010.Default(), m, k, n).Block
	tm, tk, tn := b[0]/mesh, b[1]/mesh, b[2]/mesh
	return []int{tm * tk, tk * tn, tm * tn}
}

func meshCases() []meshCase {
	var cases []meshCase
	for i, s := range gemmShapes(oracleGEMMSeed) {
		m, k, n := s[0], s[1], s[2]
		seed := uint64(3 * i)
		cases = append(cases, meshCase{fmt.Sprintf("gemm %dx%dx%d", m, k, n), gemmLDM(m, k, n),
			func(cg *sw26010.CoreGroup) (float64, []float32) {
				c := oracleData(seed+2, m*n)
				return GEMMRun(cg, oracleData(seed, m*k), oracleData(seed+1, k*n), c, m, k, n), c
			}})
	}
	for _, n := range []int{1, 3, 7, 1023, 1024, 1025, 4097, 64*1024 + 5} {
		cases = append(cases, meshCase{fmt.Sprintf("sum %d", n), []int{1024, 1024},
			func(cg *sw26010.CoreGroup) (float64, []float32) {
				acc := oracleData(uint64(n), n)
				return SumRun(cg, acc, oracleData(uint64(n)+1, n)), acc
			}})
	}
	convs := []ConvShape{
		{B: 1, Ni: 16, Ri: 24, Ci: 24, No: 1, K: 3, S: 1, P: 1},
		{B: 1, Ni: 3, Ri: 13, Ci: 13, No: 4, K: 3, S: 2, P: 1},
		{B: 1, Ni: 8, Ri: 16, Ci: 16, No: 8, K: 3, S: 1, P: 1},
	}
	for i, s := range convs {
		ro, co := s.OutDims()
		kdim := s.Ni * s.K * s.K
		seed := uint64(100 + 4*i)
		cases = append(cases, meshCase{fmt.Sprintf("im2col %v", s), []int{s.Ci, co},
			func(cg *sw26010.CoreGroup) (float64, []float32) {
				dst := make([]float32, kdim*ro*co)
				return Im2colRun(cg, oracleData(seed, s.Ni*s.Ri*s.Ci), s, dst), dst
			}})
		for _, withBias := range []bool{false, true} {
			ldm := append([]int{s.Ci, co, ro * co}, gemmLDM(s.No, kdim, ro*co)...)
			cases = append(cases, meshCase{fmt.Sprintf("conv_explicit %v bias=%v", s, withBias), ldm,
				func(cg *sw26010.CoreGroup) (float64, []float32) {
					var bias []float32
					if withBias {
						bias = oracleData(seed+3, s.No)
					}
					dst := make([]float32, s.No*ro*co)
					t := ConvExplicitRun(cg, oracleData(seed+1, s.Ni*s.Ri*s.Ci), oracleData(seed+2, s.No*kdim), bias, s, dst)
					return t, dst
				}})
		}
	}
	return cases
}

// meshRecord formats one oracle line from a launch's time, Stats and
// output.
func meshRecord(name string, t float64, st sw26010.Stats, out []float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range out {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	x := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	return fmt.Sprintf("%s: time=%s dmaGet=%d dmaPut=%d rlcBytes=%d rlcMsgs=%d flops=%s dmaTime=%s computeTime=%s rlcTime=%s ldmHighTide=%d out=%016x",
		name, x(t), st.DMAGetBytes, st.DMAPutBytes, st.RLCBytes, st.RLCMsgs, x(st.Flops),
		x(st.DMATime), x(st.ComputeTime), x(st.RLCTime), st.LDMHighTide, h.Sum64())
}

// readMeshOracle returns the golden records in file order.
func readMeshOracle(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(meshOraclePath)
	if err != nil {
		t.Fatalf("missing mesh oracle (run with -update-mesh to create): %v", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// checkMeshRecords compares got with the golden records line by line.
func checkMeshRecords(t *testing.T, got []string) {
	t.Helper()
	want := readMeshOracle(t)
	if len(got) != len(want) {
		t.Fatalf("%d records, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d changed:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestMeshOracle runs every oracle kernel on a fresh CoreGroup.
func TestMeshOracle(t *testing.T) {
	var got []string
	for _, c := range meshCases() {
		cg := sw26010.NewCoreGroup(nil)
		elapsed, out := c.run(cg)
		got = append(got, meshRecord(c.name, elapsed, cg.Stats(), out))
	}
	if *updateMesh {
		if err := os.WriteFile(meshOraclePath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", meshOraclePath, len(got))
		return
	}
	checkMeshRecords(t, got)
}

// TestLDMPoison: on a CoreGroup whose every recycled LDM buffer is
// full of NaN, each oracle kernel gives the fresh CoreGroup's time,
// Stats and output bits. A prior launch allocates the kernel's buffer
// sizes on every CPE, fills them with NaN and releases them newest
// first, so the kernel's Allocs take those buffers back in order. Any
// kernel that read LDM before writing it would carry a NaN into its
// output or differ in its hash.
func TestLDMPoison(t *testing.T) {
	nan := float32(math.NaN())
	var got []string
	for _, c := range meshCases() {
		cg := sw26010.NewCoreGroup(nil)
		cg.Run(func(pe *sw26010.CPE) {
			for _, n := range c.ldm {
				buf := pe.Alloc(n)
				for i := range buf {
					buf[i] = nan
				}
			}
			for i := len(c.ldm) - 1; i >= 0; i-- {
				pe.Release(c.ldm[i])
			}
		})
		cg.ResetStats()
		elapsed, out := c.run(cg)
		got = append(got, meshRecord(c.name, elapsed, cg.Stats(), out))
	}
	checkMeshRecords(t, got)
}
