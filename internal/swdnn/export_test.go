package swdnn

// PlanCacheSize returns the number of memoized entries currently held.
func PlanCacheSize() int {
	n := 0
	planCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// im2colNaive is the per-element lowering Im2colRef must match bit for
// bit: every column-matrix element tests its own tap against the image
// bounds.
func im2colNaive(src []float32, s ConvShape, dst []float32) {
	ro, co := s.OutDims()
	idx := 0
	for c := 0; c < s.Ni; c++ {
		for ky := 0; ky < s.K; ky++ {
			for kx := 0; kx < s.K; kx++ {
				for oy := 0; oy < ro; oy++ {
					iy := oy*s.S + ky - s.P
					if iy < 0 || iy >= s.Ri {
						for ox := 0; ox < co; ox++ {
							dst[idx] = 0
							idx++
						}
						continue
					}
					rowBase := (c*s.Ri + iy) * s.Ci
					for ox := 0; ox < co; ox++ {
						ix := ox*s.S + kx - s.P
						if ix < 0 || ix >= s.Ci {
							dst[idx] = 0
						} else {
							dst[idx] = src[rowBase+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// col2imNaive is the per-element accumulation Col2imRef must match bit
// for bit.
func col2imNaive(col []float32, s ConvShape, dst []float32) {
	ro, co := s.OutDims()
	idx := 0
	for c := 0; c < s.Ni; c++ {
		for ky := 0; ky < s.K; ky++ {
			for kx := 0; kx < s.K; kx++ {
				for oy := 0; oy < ro; oy++ {
					iy := oy*s.S + ky - s.P
					if iy < 0 || iy >= s.Ri {
						idx += co
						continue
					}
					rowBase := (c*s.Ri + iy) * s.Ci
					for ox := 0; ox < co; ox++ {
						ix := ox*s.S + kx - s.P
						if ix >= 0 && ix < s.Ci {
							dst[rowBase+ix] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// withGoGEMMs runs f with the reference GEMMs dispatched to their
// portable bodies, as on a CPU without AVX, and then restores the
// choice made at init.
func withGoGEMMs(f func()) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	f()
}
