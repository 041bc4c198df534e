package sim

import "testing"

func TestClockContinuation(t *testing.T) {
	c := NewClock(7)
	if c.Round() != 0 || c.Epoch() != 0 {
		t.Fatalf("fresh clock at round %d epoch %d", c.Round(), c.Epoch())
	}
	c.Advance(450) // the initial build
	c.Advance(-3)  // ignored
	if c.Round() != 450 {
		t.Fatalf("round = %d, want 450", c.Round())
	}
	e0, s0 := c.NextEpoch()
	c.Advance(38)
	e1, s1 := c.NextEpoch()
	if e0 != 0 || e1 != 1 {
		t.Errorf("epoch indices %d, %d", e0, e1)
	}
	if s0 == s1 {
		t.Error("consecutive epochs drew the same seed")
	}
	if c.Round() != 488 {
		t.Errorf("clock lost rounds: %d", c.Round())
	}

	// Epoch seeds depend only on (base seed, epoch index): a replayed
	// schedule reproduces them regardless of round consumption.
	d := NewClock(7)
	if _, s := d.NextEpoch(); s != s0 {
		t.Error("replayed epoch 0 drew a different seed")
	}
	if NewClock(8).seeds.Uint64() == NewClock(7).seeds.Uint64() {
		t.Error("different base seeds share the epoch stream")
	}
}
