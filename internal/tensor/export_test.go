package tensor

// Index returns the linear offset of element (n, c, h, w).
func (t *Tensor) Index(n, c, h, w int) int { return ((n*t.C+c)*t.H+h)*t.W + w }

// Set stores v at element (n, c, h, w).
func (t *Tensor) Set(n, c, h, w int, v float32) { t.Data[t.Index(n, c, h, w)] = v }

// Sum returns the float64 sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{N: t.N, C: t.C, H: t.H, W: t.W, Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}
