package swdnn

import (
	"math/rand"
	"testing"

	"swcaffe/internal/sw26010"
	"swcaffe/internal/tensor"
)

// runImplicit drives ConvImplicitRun with NCHW-world data: it converts
// the input to RCNB and the filter to (K,K,No,Ni), runs the mesh
// kernel, and converts the output back for comparison.
func runImplicit(t *testing.T, cg *sw26010.CoreGroup, s ConvShape, srcNCHW, wOINK []float32) []float32 {
	t.Helper()
	ro, co := s.OutDims()

	// Input (B, Ni, Ri, Ci) -> (Ri, Ci, Ni, B).
	in := &tensor.Tensor{N: s.B, C: s.Ni, H: s.Ri, W: s.Ci, Layout: tensor.NCHW, Data: srcNCHW}
	inRC := tensor.Transform(in, tensor.RCNB)

	// Filter (No, Ni, K, K) -> (K, K, No, Ni).
	wKK := make([]float32, len(wOINK))
	for o := 0; o < s.No; o++ {
		for i := 0; i < s.Ni; i++ {
			for kk := 0; kk < s.K*s.K; kk++ {
				wKK[(kk*s.No+o)*s.Ni+i] = wOINK[(o*s.Ni+i)*s.K*s.K+kk]
			}
		}
	}

	yRC := make([]float32, ro*co*s.No*s.B)
	if _, err := ConvImplicitRun(cg, inRC.Data, wKK, s, yRC); err != nil {
		t.Fatal(err)
	}

	// Output (Ro, Co, No, B) -> (B, No, Ro, Co).
	out := &tensor.Tensor{N: s.B, C: s.No, H: ro, W: co, Layout: tensor.RCNB, Data: yRC}
	return tensor.Transform(out, tensor.NCHW).Data
}

func TestConvImplicitRunMatchesDirect(t *testing.T) {
	cg := sw26010.NewCoreGroup(nil)
	rng := rand.New(rand.NewSource(51))
	for _, s := range []ConvShape{
		{B: 2, Ni: 8, Ri: 6, Ci: 6, No: 8, K: 3, S: 1, P: 1},
		{B: 1, Ni: 16, Ri: 8, Ci: 8, No: 8, K: 3, S: 1, P: 0},
		{B: 3, Ni: 8, Ri: 7, Ci: 9, No: 16, K: 1, S: 1, P: 0},
		{B: 2, Ni: 8, Ri: 9, Ci: 9, No: 8, K: 3, S: 2, P: 1},
		{B: 1, Ni: 8, Ri: 10, Ci: 10, No: 8, K: 5, S: 1, P: 2},
	} {
		ro, co := s.OutDims()
		src := randSlice(rng, s.B*s.Ni*s.Ri*s.Ci)
		w := randSlice(rng, s.No*s.Ni*s.K*s.K)

		got := runImplicit(t, cg, s, src, w)

		want := make([]float32, s.B*s.No*ro*co)
		imgIn := s.Ni * s.Ri * s.Ci
		imgOut := s.No * ro * co
		single := s
		single.B = 1
		for b := 0; b < s.B; b++ {
			RefConvForward(src[b*imgIn:(b+1)*imgIn], w, nil, single, want[b*imgOut:(b+1)*imgOut])
		}
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("shape %v: implicit kernel differs from direct conv by %g", s, d)
		}
	}
}

func TestConvImplicitRunRejectsBadChannels(t *testing.T) {
	cg := sw26010.NewCoreGroup(nil)
	s := ConvShape{B: 1, Ni: 6, Ri: 6, Ci: 6, No: 8, K: 3, S: 1, P: 1}
	_, err := ConvImplicitRun(cg, make([]float32, 6*6*6), make([]float32, 9*8*6), s, make([]float32, 8*36))
	if err == nil {
		t.Fatal("expected channel-divisibility error (the scaled-down Table II constraint)")
	}
}

func TestConvImplicitAvoidsIm2colTraffic(t *testing.T) {
	// The implicit kernel's defining property: no column-matrix blowup.
	// Compare simulated DMA volume against the explicit pipeline.
	s := ConvShape{B: 2, Ni: 8, Ri: 12, Ci: 12, No: 8, K: 3, S: 1, P: 1}
	rng := rand.New(rand.NewSource(52))
	src := randSlice(rng, s.B*s.Ni*s.Ri*s.Ci)
	w := randSlice(rng, s.No*s.Ni*s.K*s.K)

	cgImp := sw26010.NewCoreGroup(nil)
	runImplicit(t, cgImp, s, src, w)
	impBytes := cgImp.Stats().DMAGetBytes + cgImp.Stats().DMAPutBytes

	cgExp := sw26010.NewCoreGroup(nil)
	ro, co := s.OutDims()
	single := s
	single.B = 1
	dst := make([]float32, s.No*ro*co)
	for b := 0; b < s.B; b++ {
		ConvExplicitRun(cgExp, src[b*s.Ni*s.Ri*s.Ci:], w, nil, single, dst)
	}
	expBytes := cgExp.Stats().DMAGetBytes + cgExp.Stats().DMAPutBytes

	if impBytes >= expBytes {
		t.Fatalf("implicit DMA volume (%d) should undercut explicit (%d)", impBytes, expBytes)
	}
}
