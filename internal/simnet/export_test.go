package simnet

// AdvanceClock adds local computation time.
func (n *Node) AdvanceClock(dt float64) { *n.clock += dt }
