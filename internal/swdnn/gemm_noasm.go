//go:build !amd64

package swdnn

// Off amd64 the reference GEMMs run their portable bodies.

// useAVX is never set here; it exists for the tests' dispatch hook.
var useAVX bool

func gemmNN(a, b, c []float32, m, k, n int) { gemmNNGo(a, b, c, m, k, n) }

func gemmTN(a, b, c []float32, m, k, n int) { gemmTNGo(a, b, c, m, k, n) }

func gemmNT(a, b, c []float32, m, k, n int) { gemmNTGo(a, b, c, m, k, n) }
