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
package par

import (
	"runtime"
	"sync"
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
// team's one WaitGroup. Workers are started by the first pass that needs them and
// kept until Close, so a pass allocates no goroutine, closure or
// WaitGroup. The zero Team runs every pass on the caller.
//
// A Team is driven from one goroutine; it must not be copied once a pass
// has fanned out.
type Team struct {
	size int
	jobs []chan job // jobs[q-1] feeds the worker running chunk q
	wg   sync.WaitGroup
}

// job is chunk chunk, the items [lo, hi), of a pass of fn.
type job struct {
	fn            func(chunk, lo, hi int)
	chunk, lo, hi int
}

// Open sizes t for passes of up to workers chunks (<= 0 means
// GOMAXPROCS). It starts no goroutine: the first pass that fans out does.
func (t *Team) Open(workers int) { t.size = Workers(workers) }

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
	t.wg.Add(chunks - 1)
	for q := 1; q < chunks; q++ {
		t.jobs[q-1] <- job{fn: fn, chunk: q, lo: q * chunk, hi: min((q+1)*chunk, n)}
	}
	fn(0, 0, chunk)
	t.wg.Wait()
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
// closes, marking each done, and marks its own exit done last.
func (t *Team) work(jobs <-chan job) {
	for j := range jobs {
		j.fn(j.chunk, j.lo, j.hi)
		t.wg.Done()
	}
	t.wg.Done()
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
