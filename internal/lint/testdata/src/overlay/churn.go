package overlay

// advance writes session state from churn.go, which left the writer
// list when the epoch schedule stopped touching sessions.
func (s *Session) advance() { s.epoch++ } // want `write to Session\.epoch from churn\.go`

var _ = (*Session).advance
