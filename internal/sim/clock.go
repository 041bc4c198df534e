package sim

import "overlay/internal/rng"

// Clock threads the global synchronous round count through a sequence
// of engine runs. A live overlay session is not one engine execution
// but many — the initial build plus one repair or rebuild per churn
// epoch — yet the model's clock is singular: fault schedules, round
// budgets, and reproducibility all speak in global rounds. Clock is
// that continuation: each epoch advances it by the rounds the epoch's
// engines (or charged repairs) consumed, so a fault plan written
// against the session clock can be shifted into any later engine's
// local clock, and per-epoch randomness is split deterministically
// from one base seed so a session is a pure function of (inputs, seed,
// epoch schedule) at every worker count.
type Clock struct {
	round int
	epoch int
	seeds rng.Source
}

// NewClock starts a clock at round 0, epoch 0, deriving per-epoch
// seeds from seed.
func NewClock(seed uint64) *Clock {
	return &Clock{seeds: *rng.New(seed).Split(0xc10c)}
}

// Round returns the global round count accumulated so far.
func (c *Clock) Round() int { return c.round }

// Epoch returns the number of epochs completed so far.
func (c *Clock) Epoch() int { return c.epoch }

// Advance adds an engine run's (or a charged repair's) round count to
// the global clock. Negative advances are ignored.
func (c *Clock) Advance(rounds int) {
	if rounds > 0 {
		c.round += rounds
	}
}

// Snapshot returns a value copy of the clock's complete state. The
// seed source is a pure value (splitting never mutates it), so the
// copy is an independent clock that replays rounds, epoch index, and
// per-epoch seeds exactly — which is what lets a session's committed
// state hold its clock by value.
func (c *Clock) Snapshot() Clock { return *c }

// NextEpoch closes the current epoch and returns its index along with
// the epoch's deterministic seed. The seed depends only on the base
// seed and the epoch index, never on how many rounds earlier epochs
// consumed, so replaying a prefix of a schedule reproduces the same
// per-epoch randomness.
func (c *Clock) NextEpoch() (epoch int, seed uint64) {
	epoch = c.epoch
	c.epoch++
	return epoch, c.seeds.Split(uint64(epoch)).Uint64()
}
