package wire

// AttachedWorkers returns how many worker processes are currently
// attached.
func (s *Server) AttachedWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ctrl)
}
