package obs

// Reset drops every instrument and registered gauge func.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counts = make(map[string]*Counter)
	r.fcnts = make(map[string]*FloatCounter)
	r.gauges = make(map[string]*Gauge)
	r.gfuncs = make(map[string]func() float64)
	r.mu.Unlock()
}
