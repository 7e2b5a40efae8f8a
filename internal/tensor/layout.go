package tensor

// Transform converts a tensor between the NCHW and RCNB layouts,
// returning a freshly allocated tensor with the target layout. This is
// the functional core of the paper's tensor-transformation layer
// (Sec. IV-C): a 4-D dimension transposition between the explicit-GEMM
// data arrangement (B, N, R, C) and the implicit-GEMM arrangement
// (R, C, N, B).
//
//swvet:ignore deadexport: test oracle; the implicit-conv and TransformRun tests convert layouts on the host with it
func Transform(src *Tensor, to Layout) *Tensor {
	if src.Layout == to {
		return src.Clone()
	}
	dst := &Tensor{N: src.N, C: src.C, H: src.H, W: src.W, Layout: to,
		Data: make([]float32, src.Len())}
	transformInto(src, dst)
	return dst
}

// transformInto converts src into dst, which must have the same logical
// shape. It works for any pair of layouts, including identical ones.
func transformInto(src, dst *Tensor) {
	if !src.SameShape(dst) {
		panic("tensor: transformInto shape mismatch")
	}
	if src.Layout == dst.Layout {
		copy(dst.Data, src.Data)
		return
	}
	// Walk the logical index space once. The inner two loops iterate the
	// dimensions that are contiguous in at least one of the layouts to
	// keep one side of the copy streaming.
	n, c, h, w := src.N, src.C, src.H, src.W
	switch {
	case src.Layout == NCHW && dst.Layout == RCNB:
		for in := 0; in < n; in++ {
			for ic := 0; ic < c; ic++ {
				srcBase := (in*c + ic) * h * w
				for ih := 0; ih < h; ih++ {
					for iw := 0; iw < w; iw++ {
						dst.Data[((ih*w+iw)*c+ic)*n+in] = src.Data[srcBase+ih*w+iw]
					}
				}
			}
		}
	case src.Layout == RCNB && dst.Layout == NCHW:
		for ih := 0; ih < h; ih++ {
			for iw := 0; iw < w; iw++ {
				srcBase := (ih*w + iw) * c * n
				for ic := 0; ic < c; ic++ {
					for in := 0; in < n; in++ {
						dst.Data[((in*c+ic)*h+ih)*w+iw] = src.Data[srcBase+ic*n+in]
					}
				}
			}
		}
	default:
		// Generic path (future layouts).
		for in := 0; in < n; in++ {
			for ic := 0; ic < c; ic++ {
				for ih := 0; ih < h; ih++ {
					for iw := 0; iw < w; iw++ {
						dst.Data[dst.Index(in, ic, ih, iw)] = src.Data[src.Index(in, ic, ih, iw)]
					}
				}
			}
		}
	}
}
