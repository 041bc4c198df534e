package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestTeamCoversRangeOnce: a pass visits every item exactly once, at
// every team size (0 = GOMAXPROCS) and input size.
func TestTeamCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		var team Team
		team.Open(workers)
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]int32, n)
			team.Run(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
		team.Close()
	}
}

// TestTeamPartition pins the partition every caller's determinism rests
// on: chunk q of a pass of n items at team size w is
// [q·⌈n/w'⌉, min((q+1)·⌈n/w'⌉, n)) with w' = min(w, n), empty chunks
// dropped — the formula the engine, the evolver and the power iteration
// partitioned by before they shared a team. Each chunk index runs once.
// The team is reopened with its workers live, across the GOMAXPROCS
// line where its waiting policy flips, which -race checks is no race.
func TestTeamPartition(t *testing.T) {
	var team Team
	defer team.Close()
	for _, w := range []int{1, 2, 3, 4, 7, 16} {
		team.Open(w)
		for _, n := range []int{0, 1, 2, 3, 9, 10, 64, 257} {
			got := make([][2]int, w)
			for i := range got {
				got[i] = [2]int{-1, -1}
			}
			team.Run(n, func(chunk, lo, hi int) { got[chunk] = [2]int{lo, hi} })
			want := make([][2]int, w)
			for i := range want {
				want[i] = [2]int{-1, -1}
			}
			if ww := min(w, n); ww > 0 {
				chunk := (n + ww - 1) / ww
				for q := 0; q*chunk < n; q++ {
					want[q] = [2]int{q * chunk, min((q+1)*chunk, n)}
				}
			}
			for q := range want {
				if got[q] != want[q] {
					t.Fatalf("w=%d n=%d: chunk %d ran %v, want %v", w, n, q, got[q], want[q])
				}
			}
		}
	}
}

// TestTeamPassAllocatesNothing: once a team's workers are up, a pass of
// a function bound once allocates nothing, and Close stops the workers
// so a reopened pass starts them again.
func TestTeamPassAllocatesNothing(t *testing.T) {
	var team Team
	team.Open(4)
	defer team.Close()
	hits := make([]int32, 1000)
	fn := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	}
	team.Run(len(hits), fn)
	if allocs := testing.AllocsPerRun(100, func() { team.Run(len(hits), fn) }); allocs != 0 {
		t.Errorf("a pass allocates %.0f objects; want 0", allocs)
	}
	team.Close()
	team.Run(len(hits), fn)
	// One pass before, AllocsPerRun's warm-up and 100 passes, one after.
	for i, h := range hits {
		if h != 103 {
			t.Fatalf("index %d visited %d times, want 103", i, h)
		}
	}
}

// TestTeamCloseStopsWorkers: after Close the goroutine count is back at
// its baseline, however many passes and reopenings came before.
func TestTeamCloseStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, w := range []int{2, 3, 8, 16} {
		var team Team
		team.Open(w)
		for pass := 0; pass < 3; pass++ {
			team.Run(100, func(int, int, int) {})
			team.Close()
		}
		if got := settledGoroutines(base); got > base {
			t.Errorf("w=%d: %d goroutines after Close, baseline %d", w, got, base)
		}
	}
}

// settledGoroutines returns the goroutine count once it is at most base,
// or after a second of waiting: a worker that has returned from its loop
// may still be on its way out of the scheduler.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamParksAfterTheWindow covers the park fallback on both sides of
// a pass: passes issued after a serial gap longer than the window, when
// the workers have parked in a blocking receive, and a pass whose worker
// chunk outlasts the window, when the caller joins on the WaitGroup,
// still run every chunk exactly once.
func TestTeamParksAfterTheWindow(t *testing.T) {
	var team Team
	team.Open(2)
	defer team.Close()
	hits := make([]int32, 64)
	fn := func(chunk, lo, hi int) {
		if chunk == 1 && hits[lo] == 2 {
			time.Sleep(3 * spinWindow)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	}
	for pass := 1; pass <= 4; pass++ {
		team.Run(len(hits), fn)
		if !workersParked(t) {
			t.Fatalf("pass %d: a worker is still awake a second after the pass", pass)
		}
		for i, h := range hits {
			if h != int32(pass) {
				t.Fatalf("pass %d: index %d visited %d times", pass, i, h)
			}
		}
	}
}

// workersParked reports whether, within a second, every live Team worker
// is blocked in its channel receive: a spinning one has run out its
// window, and an oversubscribed one never polled.
func workersParked(t *testing.T) bool {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(time.Second)
	for {
		parked := true
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("par.(*Team).work")) && !bytes.Contains(g, []byte("[chan receive")) {
				parked = false
			}
		}
		if parked || time.Now().After(deadline) {
			return parked
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOversubscribedTeamNeverSpins: Open turns waiting awake off for a
// team larger than GOMAXPROCS and on for one no larger — Run's join and
// every job it hands out follow that flag — and reopening a live team
// moves it both ways, with a pass at each setting.
func TestOversubscribedTeamNeverSpins(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	var team Team
	defer team.Close()
	for _, c := range []struct {
		workers int
		spin    bool
	}{{0, true}, {procs, true}, {procs + 1, false}, {procs, true}, {2 * procs, false}} {
		team.Open(c.workers)
		if team.spin != c.spin {
			t.Fatalf("Open(%d) at GOMAXPROCS %d: spin %v, want %v", c.workers, procs, team.spin, c.spin)
		}
		team.Run(100, func(int, int, int) {})
	}
}

// BenchmarkTeamHandoff times the hand-off the engine pays at every pass:
// about 100 µs of serial work on the caller, then a 2-chunk pass of
// about 100 µs a chunk. An op costs 200 µs when the worker takes its
// chunk at once; the excess is the wake-up.
func BenchmarkTeamHandoff(b *testing.B) {
	const work = 100 * time.Microsecond
	busy := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	fn := func(int, int, int) { busy(work) }
	var team Team
	team.Open(2)
	defer team.Close()
	team.Run(2, fn)
	b.ResetTimer()
	for range b.N {
		busy(work)
		team.Run(2, fn)
	}
}

// TestBlockSumWorkerIndependent pins the fixed-block reduction: the
// floating-point total must be bit-identical at every team size, because
// block boundaries depend only on n.
func TestBlockSumWorkerIndependent(t *testing.T) {
	n := 3*RedBlock + 17
	x := make([]float64, n)
	for i := range x {
		x[i] = 1.0 / float64(i+3)
	}
	sums := make([]float64, Blocks(n))
	blocks := func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			s := 0.0
			for i := b * RedBlock; i < min((b+1)*RedBlock, n); i++ {
				s += x[i]
			}
			sums[b] = s
		}
	}
	var one Team
	ref := one.Sum(sums, blocks)
	for _, w := range []int{2, 3, 5, 16} {
		var team Team
		team.Open(w)
		got := team.Sum(sums, blocks)
		team.Close()
		if got != ref {
			t.Fatalf("workers=%d: %v != %v", w, got, ref)
		}
	}
}
