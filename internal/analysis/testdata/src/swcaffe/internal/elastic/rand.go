// Package elastic is a fixture: it once owned a checkpointed sampler
// and with it the one exemption from rawrand. No package is exempt
// now, so this import is a finding like any other.
package elastic

import "math/rand" // finding

// Draw exists so the import is used.
func Draw() int64 { return rand.New(rand.NewSource(1)).Int63() }
