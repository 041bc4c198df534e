// Package par provides the repository's one fork-join primitive, Team,
// shared by the message-level engine (its node and delivery passes),
// the evolution sequence (token walks, acceptance, row building) and the
// spectral power iteration (mat-vecs and block reductions).
//
// Everything here is shape-deterministic: the partition of work into
// chunks depends only on the input size and the team size, never on
// scheduling, so callers that keep per-chunk state (rng streams,
// floating-point partial sums) produce bit-identical results at every
// worker count. Contrast with a work-stealing pool, where chunk
// boundaries — and hence floating-point reduction order — would vary
// run to run.
//
// A team never outlives the call that opened it: the call starts no
// worker until its first fanned-out pass and stops every worker before
// it returns (Team.Close, deferred), so no caller owns a goroutine past
// its return, on any path out — quiescence, a round budget, an
// interrupt or a panic.
//
// Between passes a team no larger than GOMAXPROCS stays awake for a
// bounded window: a worker that has finished its chunk polls for its
// next one, and the caller polls for the pass's end, for up to
// spinWindow (yielding the processor every yieldEvery polls) before
// either parks in a blocking receive or wait. The engine's rounds are
// five passes each with a little serial work between them, so nearly
// every hand-off falls inside the window; a parked goroutine costs a
// scheduler wake-up at every one of them, which on a 2-vCPU host was
// about a fifth of a message-level build's time. The clock decides only
// when a goroutine parks, never a chunk boundary, so results do not
// depend on it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Team is a fork-join team of up to the workers Open was given. Run
// splits a pass into contiguous chunks, runs chunk 0 on the calling
// goroutine and hands every other chunk to a worker of its own as a
// small job value over that worker's buffered channel, then joins on the
// pass's countdown and the team's one WaitGroup. Workers are started by
// the first pass that needs them and kept until Close, so a pass
// allocates no goroutine, closure or WaitGroup. The zero Team runs every
// pass on the caller.
//
// A team larger than GOMAXPROCS does not wait awake (see the package
// doc): it could only spin on processors its own workers need, so its
// workers park as soon as their chunk is done and its caller joins on
// the WaitGroup alone. Open fixes the policy and each job carries it to
// its worker, so reopening a team whose workers are live races with
// nothing.
//
// A Team is driven from one goroutine; it must not be copied once a pass
// has fanned out.
type Team struct {
	size int
	spin bool       // size <= GOMAXPROCS: wait awake between passes
	jobs []chan job // jobs[q-1] feeds the worker running chunk q
	left atomic.Int32
	wg   sync.WaitGroup
}

// job is chunk chunk, the items [lo, hi), of a pass of fn; spin is the
// team's waiting policy for the worker once the chunk is done.
type job struct {
	fn            func(chunk, lo, hi int)
	chunk, lo, hi int
	spin          bool
}

// spinWindow is how long a worker polls for its next chunk, and the
// caller for a pass's end, before parking. In a 4,096-node
// message-level build 99.7 % of a worker's waits for its next chunk end
// within it, half of them within 2 µs; a longer gap is serial work
// beside which a wake-up is small. Windows of 300 µs to unbounded
// measured the same on that build.
const spinWindow = time.Millisecond

// yieldEvery is the number of polls between runtime.Gosched calls (and
// clock reads) while waiting awake, so a spinning goroutine leaves its
// processor to any other runnable one within a few microseconds.
const yieldEvery = 32

// Open sizes t for passes of up to workers chunks (<= 0 means
// GOMAXPROCS) and fixes its waiting policy. It starts no goroutine: the
// first pass that fans out does.
func (t *Team) Open(workers int) {
	t.size = Workers(workers)
	t.spin = t.size <= runtime.GOMAXPROCS(0)
}

// Run runs fn over [0, n) split, for w = min(team size, n), into
// contiguous chunks of ⌈n/w⌉ items — the last one shorter, none empty,
// chunk indices dense from 0 — and returns once every chunk has. fn must be safe to call concurrently on disjoint ranges.
// fn is passed through unchanged, so a caller that binds it once makes
// a pass that allocates nothing.
//
//overlay:hotpath
func (t *Team) Run(n int, fn func(chunk, lo, hi int)) {
	w := min(t.size, n)
	if w <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	chunks := (n + chunk - 1) / chunk
	if len(t.jobs) < chunks-1 {
		t.start(chunks - 1)
	}
	t.left.Store(int32(chunks - 1))
	t.wg.Add(chunks - 1)
	for q := 1; q < chunks; q++ {
		t.jobs[q-1] <- job{fn: fn, chunk: q, lo: q * chunk, hi: min((q+1)*chunk, n), spin: t.spin}
	}
	fn(0, 0, chunk)
	if !t.spin || !t.joined() {
		t.wg.Wait()
	}
}

// joined polls the pass's countdown for up to spinWindow and reports
// whether every worker's chunk is done. A worker counts down before it
// marks the WaitGroup done, so a WaitGroup that lags a finished pass
// only delays a later Wait by that worker's next few instructions.
func (t *Team) joined() bool {
	p := pacer{start: time.Now()}
	for t.left.Load() != 0 {
		if !p.more() {
			return false
		}
	}
	return true
}

// pacer paces one awake wait: more is called after every poll, yields
// the processor every yieldEvery polls and reports false once the wait
// has lasted spinWindow.
type pacer struct {
	start time.Time
	polls int
}

func (p *pacer) more() bool {
	p.polls++
	if p.polls%yieldEvery != 0 {
		return true
	}
	if time.Since(p.start) > spinWindow {
		return false
	}
	runtime.Gosched()
	return true
}

// start brings the team up to k workers.
func (t *Team) start(k int) {
	for len(t.jobs) < k {
		jobs := make(chan job, 1)
		t.jobs = append(t.jobs, jobs)
		go t.work(jobs)
	}
}

// work is one worker: it runs the jobs it is handed until its channel
// closes, counting each down and marking it done, and marks its own exit
// done last. After a job that says so it waits for the next one awake
// (see await) before it parks in a blocking receive.
func (t *Team) work(jobs <-chan job) {
	j, ok := <-jobs
	for ok {
		j.fn(j.chunk, j.lo, j.hi)
		t.left.Add(-1)
		t.wg.Done()
		got := false
		if j.spin {
			j, ok, got = await(jobs)
		}
		if !got {
			j, ok = <-jobs
		}
	}
	t.wg.Done()
}

// await polls jobs for up to spinWindow without blocking. got reports
// whether the poll received (j, ok as from a receive) before the window
// closed.
func await(jobs <-chan job) (j job, ok, got bool) {
	p := pacer{start: time.Now()}
	for {
		select {
		case j, ok = <-jobs:
			return j, ok, true
		default:
		}
		if !p.more() {
			return job{}, false, false
		}
	}
}

// Close stops t's workers and returns once every one of them has
// finished its last job and left its loop. t keeps its size: a later
// pass that fans out starts workers anew. Closing a team that never fanned
// out costs nothing.
func (t *Team) Close() {
	if len(t.jobs) == 0 {
		return
	}
	t.wg.Add(len(t.jobs))
	for _, jobs := range t.jobs {
		close(jobs)
	}
	t.wg.Wait()
	clear(t.jobs)
	t.jobs = t.jobs[:0]
}

// RedBlock is the fixed reduction block size used for deterministic
// floating-point sums: values are summed sequentially within each
// block and blocks are combined in index order, so the rounding
// schedule is a function of the input length only.
const RedBlock = 4096

// Blocks returns the number of RedBlock-sized blocks covering n.
func Blocks(n int) int { return (n + RedBlock - 1) / RedBlock }

// Sum runs fn(chunk, blo, bhi), which must fill sums[b] for every b in
// [blo, bhi) — accumulating sequentially within each block — across the
// team and returns the in-order total of sums. fn is passed through
// unchanged, so a caller that builds it once sums without allocating.
func (t *Team) Sum(sums []float64, fn func(chunk, blo, bhi int)) float64 {
	t.Run(len(sums), fn)
	total := 0.0
	for b := range sums {
		total += sums[b]
	}
	return total
}
