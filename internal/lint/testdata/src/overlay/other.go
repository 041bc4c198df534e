package overlay

// Hack writes session state from outside the writer files.
func Hack(s *Session) {
	s.epoch = 9        // want `write to Session\.epoch from other\.go`
	s.epoch++          // want `write to Session\.epoch from other\.go`
	s.state.Store(nil) // want `write to Session\.state from other\.go`
	_ = s.epoch        // reads stay legal everywhere
	_ = s.state.Load() // loads too
}
