package core

import "swcaffe/internal/tensor"

// Diff returns the gradient blob Setup allocated for the named blob,
// or nil where the blob has none.
func (n *Net) Diff(name string) *tensor.Tensor { return n.diffs[name] }
