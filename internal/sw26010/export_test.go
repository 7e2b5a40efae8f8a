package sw26010

// Clock returns the CPE's simulated time in seconds since kernel launch.
func (pe *CPE) Clock() float64 { return pe.clock }

// RowSend performs a P2P transfer to (Row, toCol). The kernels only
// broadcast on the row bus; the tests use the P2P mode to pin the bus
// FIFOs and the RLC clock rules.
func (pe *CPE) RowSend(toCol int, data []float32) {
	if toCol == pe.Col {
		panic("sw26010: RowSend to self")
	}
	pe.send(pe.peer(pe.Row, toCol), true, message{data, pe.chargeRLCSend(int64(len(data)) * 4)})
}
