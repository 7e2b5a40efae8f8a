package swnode

// Done reports whether the launch has completed without blocking.
func (e *Event) Done() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Wait blocks until every launch submitted to the stream so far has
// completed and returns the stream's modeled finish time (0 when the
// stream never launched).
func (s *Stream) Wait() float64 {
	s.mu.Lock()
	tail := s.tail
	s.mu.Unlock()
	if tail == nil {
		return 0
	}
	tail.Wait()
	return tail.simEnd
}
