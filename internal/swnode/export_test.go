package swnode

import (
	"unsafe"

	"swcaffe/internal/sw26010"
)

// EventBytes is the size of an Event, which a pooled node allocates per
// launch.
const EventBytes = unsafe.Sizeof(Event{})

// NewDESNode builds one DES node (see NewDESCluster).
func NewDESNode(m *sw26010.Model) *Node { return NewDESCluster(1, m).Node(0) }

// DES reports whether this is a DES node.
func (n *Node) DES() bool { return n.des }

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
