// Package overlay is the singlewriter corpus's stand-in for the root
// package: Session fields may be assigned, and the committed state
// stored, only from session.go and epoch.go.
package overlay

// state is the stub of the atomic pointer holding the committed state.
type state struct{ v *int }

func (p *state) Store(v *int) { p.v = v }
func (p *state) Load() *int   { return p.v }

// Session is the stub session: one mutable field and the committed
// state pointer behind the contract.
type Session struct {
	epoch int
	state state
}

// ApplyEpoch advances the session; legal, session.go owns the state.
func (s *Session) ApplyEpoch(e int) {
	s.epoch = e
	s.state.Store(&e)
}

// Restore rolls the session back; also a registered mutator.
func (s *Session) Restore(e int) {
	s.epoch = e
}

// Epoch reads the current epoch; reads are unrestricted.
func (s *Session) Epoch() int { return s.epoch }
