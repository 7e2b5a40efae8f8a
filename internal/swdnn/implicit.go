package swdnn

import (
	"fmt"

	"swcaffe/internal/sw26010"
)

// ConvImplicitRun executes the implicit-GEMM convolution functionally
// on the CPE mesh for one mini-batch in the RCNB layout (paper
// Sec. IV-B2 / swDNN ref [4]):
//
//   - input  x: (Ri, Ci, Ni, B)   — batch innermost
//   - filter w: (K, K, No, Ni)    — the Sec. IV-C filter layout
//   - output y: (Ro, Co, No, B)
//
// The channel dimensions are tiled over the 8x8 mesh: CPE(i, j) owns
// output-channel block i and input-channel block j. Each CPE keeps its
// filter block resident in LDM, streams K input rows of its Ni block
// per output row, computes a partial output row, and the row's CPEs
// reduce their Ni partials onto column 0 over the row register bus —
// which is why the kernel demands at least MeshDim channels per side
// (the Table II feasibility dashes, scaled to the full chip as 64).
//
// This functional kernel exists to validate the implicit plan's
// algorithm at small shapes; the analytic ConvImplicitPlan prices the
// full-scale equivalent.
func ConvImplicitRun(cg *sw26010.CoreGroup, x, w []float32, s ConvShape, y []float32) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if s.Ni%mesh != 0 || s.No%mesh != 0 {
		return 0, fmt.Errorf("swdnn: implicit kernel needs Ni and No divisible by %d (got %d, %d)",
			mesh, s.Ni, s.No)
	}
	ro, co := s.OutDims()
	if len(x) < s.Ri*s.Ci*s.Ni*s.B || len(w) < s.K*s.K*s.No*s.Ni || len(y) < ro*co*s.No*s.B {
		return 0, fmt.Errorf("swdnn: implicit kernel buffer too small")
	}
	niB := s.Ni / mesh // input-channel block per CPE column
	noB := s.No / mesh // output-channel block per CPE row

	t := cg.Run(func(pe *sw26010.CPE) {
		i, j := pe.Row, pe.Col
		// Resident filter block: (K, K, noB, niB) gathered once.
		fBlk := pe.Alloc(s.K * s.K * noB * niB)
		// Input band: K rows x Ci x niB x B.
		band := pe.Alloc(s.K * s.Ci * niB * s.B)
		// Partial output row: Co x noB x B.
		part := pe.Alloc(co * noB * s.B)
		defer func() {
			pe.Release(s.K * s.K * noB * niB)
			pe.Release(s.K * s.Ci * niB * s.B)
			pe.Release(co * noB * s.B)
		}()

		// Gather the filter block with strided DMA: for each (ky, kx,
		// local no) the niB run is contiguous in the (K,K,No,Ni) layout.
		for tap := 0; tap < s.K*s.K; tap++ {
			for o := 0; o < noB; o++ {
				srcOff := (tap*s.No + i*noB + o) * s.Ni
				dstOff := (tap*noB + o) * niB
				pe.DMAGet(fBlk[dstOff:dstOff+niB], w[srcOff+j*niB:srcOff+j*niB+niB])
			}
		}

		rowStride := s.Ci * s.Ni * s.B // elements per input row
		for oy := 0; oy < ro; oy++ {
			// Stage the K input rows this output row reads (zero-filled
			// outside the image: the coordinate-mapped padding of
			// Sec. IV-B2, no explicit pad pass).
			for ky := 0; ky < s.K; ky++ {
				iy := oy*s.S + ky - s.P
				dst := band[ky*s.Ci*niB*s.B : (ky+1)*s.Ci*niB*s.B]
				if iy < 0 || iy >= s.Ri {
					for z := range dst {
						dst[z] = 0
					}
					continue
				}
				// Per image column, the (niB x B) chunk of channel block
				// j is contiguous after the channel-major stride.
				pe.DMAGetStrided(dst, x[iy*rowStride+j*niB*s.B:],
					s.Ci, niB*s.B, s.Ni*s.B)
			}
			// Compute the partial output row from this Ni block.
			clear(part)
			for ox := 0; ox < co; ox++ {
				for ky := 0; ky < s.K; ky++ {
					for kx := 0; kx < s.K; kx++ {
						ix := ox*s.S + kx - s.P
						if ix < 0 || ix >= s.Ci {
							continue
						}
						in := band[(ky*s.Ci+ix)*niB*s.B : (ky*s.Ci+ix+1)*niB*s.B]
						for o := 0; o < noB; o++ {
							fRow := fBlk[((ky*s.K+kx)*noB+o)*niB : ((ky*s.K+kx)*noB+o+1)*niB]
							out := part[(ox*noB+o)*s.B : (ox*noB+o+1)*s.B]
							for ic := 0; ic < niB; ic++ {
								f := fRow[ic]
								if f == 0 {
									continue
								}
								src := in[ic*s.B : (ic+1)*s.B]
								for b := 0; b < s.B; b++ {
									out[b] += float32(f * src[b])
								}
							}
						}
					}
				}
			}
			pe.ChargeFlops(2 * float64(co*s.K*s.K*noB*niB*s.B) / simdEfficiency)

			// Row-wise reduction of the Ni partials onto column 0.
			if j != 0 {
				// part is sent by reference: column 0 consumes the
				// message before its barrier arrival, and the sender
				// does not touch part again until after that barrier,
				// so no defensive copy is needed.
				pe.RowSend(0, part)
			} else {
				for src := 1; src < mesh; src++ {
					in := pe.RowRecv(src)
					for z, v := range in {
						part[z] += v
					}
					pe.ChargeFlops(float64(len(part)))
				}
				// Column 0 owns the finished (Co, noB, B) row: scatter it
				// into y (Ro, Co, No, B) with a strided put per column.
				pe.DMAPutStrided(y[(oy*co*s.No+i*noB)*s.B:], part,
					co, noB*s.B, s.No*s.B)
			}
			pe.Barrier()
		}
	})
	return t, nil
}
