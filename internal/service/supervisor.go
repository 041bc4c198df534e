// Package service is the overlay-as-a-service layer: it hosts many
// concurrent overlay.Sessions behind an HTTP/JSON control plane, with
// robustness as the load-bearing design. Every session runs inside a
// Supervisor that serializes its mutations through a bounded work
// queue (overload is a typed 429, never an unbounded goroutine
// pile-up), isolates panics with recover + checkpoint rollback, and
// exposes a small per-session state machine (ready → repairing →
// degraded → evicted). Every request is deadline-aware, and a
// draining server finishes in-flight epochs, checkpoints every
// session, and refuses new work with a typed 503 — the service-level
// form of the per-epoch fair-termination guarantee: every request
// ends in a response, a typed error, a rollback, or a clean drain,
// never a hang.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"overlay"
)

// State is a supervised session's lifecycle position.
type State int32

const (
	// StateReady: serving lookups, accepting mutations, queue idle or
	// moving.
	StateReady State = iota
	// StateRepairing: a mutation (epoch repair, plan application) is
	// executing right now. Lookups keep being served from the last
	// committed state.
	StateRepairing
	// StateDegraded: the last mutation failed in a way that rolled the
	// session back (a panic, or a recovery-ladder exhaustion). The
	// session still serves lookups and still accepts mutations; a
	// subsequent successful mutation returns it to ready.
	StateDegraded
	// StateEvicted: the supervisor drained and sealed — the final
	// checkpoint is taken and no further mutations are accepted.
	StateEvicted
)

// String names the state for JSON bodies and logs.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRepairing:
		return "repairing"
	case StateDegraded:
		return "degraded"
	case StateEvicted:
		return "evicted"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ErrQueueFull reports that a supervisor's bounded mutation queue is
// at capacity; the caller should retry after a short backoff (the API
// layer maps it to 429 + Retry-After).
var ErrQueueFull = errors.New("service: supervisor mutation queue is full")

// ErrDraining reports that the supervisor (or the whole server) is
// draining and admits no new work (mapped to 503 + Retry-After).
var ErrDraining = errors.New("service: draining, not admitting new work")

// ErrEvicted reports that the supervised session has been evicted.
var ErrEvicted = errors.New("service: session evicted")

// PanicError reports a panic a supervisor caught during a mutation.
// The session was rolled back to its pre-mutation checkpoint and the
// supervisor degraded; the stack is retained for the operator.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string {
	return "service: panic during supervised mutation: " + e.Value
}

// JobFunc is one serialized session mutation. It runs on the
// supervisor's single worker goroutine — the only goroutine that ever
// mutates the session — with the submitting request's context.
// degrade reports that the session survived by rollback (an aborted
// recovery ladder) and the supervisor should enter StateDegraded even
// though err carries the detail; a plain err with degrade=false (bad
// arguments, an expired deadline) leaves the state machine alone.
type JobFunc func(ctx context.Context, sess *overlay.Session) (out any, degrade bool, err error)

// job is one queued mutation; done is buffered so the worker never
// blocks handing back a result nobody is waiting for (async jobs).
type job struct {
	ctx  context.Context
	run  JobFunc
	done chan jobResult
}

type jobResult struct {
	out any
	err error
}

// Supervisor owns one overlay.Session: it is the session's single
// writer, serializing every mutation through a bounded queue, and the
// holder of its lifecycle state machine. Reads (RouteLookup, Members,
// Bills, …) go straight to the session — overlay.Session is
// multi-reader-safe concurrently with the supervisor's writes.
type Supervisor struct {
	sess  *overlay.Session
	queue chan *job

	state atomic.Int32

	// admit guards the draining transition against in-flight submits:
	// submitters hold it shared while they test-and-send, BeginDrain
	// holds it exclusively while flipping draining, so after
	// BeginDrain returns no new job can enter the queue and the
	// drain sweep sees every admitted job.
	admit    sync.RWMutex
	draining bool

	quit      chan struct{}
	quitOnce  sync.Once
	stopped   chan struct{}
	mu        sync.Mutex // guards lastFault, finalCP
	lastFault string
	finalCP   *overlay.Checkpoint
}

// NewSupervisor wraps a session and starts its worker. queueDepth
// bounds the mutation queue (minimum 1): a full queue is backpressure
// (ErrQueueFull), never an unbounded pile-up.
func NewSupervisor(sess *overlay.Session, queueDepth int) *Supervisor {
	if queueDepth < 1 {
		queueDepth = 1
	}
	sup := &Supervisor{
		sess:    sess,
		queue:   make(chan *job, queueDepth),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go sup.loop()
	return sup
}

// Session exposes the supervised session for the read paths. Callers
// must only use its read-side methods; all mutations go through Do.
func (sup *Supervisor) Session() *overlay.Session { return sup.sess }

// State returns the current lifecycle state.
func (sup *Supervisor) State() State { return State(sup.state.Load()) }

func (sup *Supervisor) setState(s State) { sup.state.Store(int32(s)) }

// QueueLen and QueueDepth report the mutation queue's occupancy and
// capacity (monitoring surface; Len is a snapshot).
func (sup *Supervisor) QueueLen() int   { return len(sup.queue) }
func (sup *Supervisor) QueueDepth() int { return cap(sup.queue) }

// LastFault returns the most recent caught panic value, or "".
func (sup *Supervisor) LastFault() string {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return sup.lastFault
}

// FinalCheckpoint returns the checkpoint the drain sweep took, or nil
// while the supervisor is live — the drain-completeness witness the
// shutdown path (and its tests) assert on.
func (sup *Supervisor) FinalCheckpoint() *overlay.Checkpoint {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	return sup.finalCP
}

// submit admits a job or reports typed backpressure without blocking.
func (sup *Supervisor) submit(j *job) error {
	sup.admit.RLock()
	defer sup.admit.RUnlock()
	if sup.draining {
		if sup.State() == StateEvicted {
			return ErrEvicted
		}
		return ErrDraining
	}
	select {
	case sup.queue <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Do submits a mutation and waits for its result. Admission is
// non-blocking: a full queue returns ErrQueueFull immediately. Once
// admitted, Do waits for the worker's verdict even past the context
// deadline — the worker skips a job whose context expired before it
// started and interrupts one that expires mid-run (the session rolls
// back), so the eventual error is the proof that the session is
// untouched; responding earlier would race the rollback.
func (sup *Supervisor) Do(ctx context.Context, fn JobFunc) (any, error) {
	j := &job{ctx: ctx, run: fn, done: make(chan jobResult, 1)}
	if err := sup.submit(j); err != nil {
		return nil, err
	}
	r := <-j.done
	return r.out, r.err
}

// DoAsync submits a mutation without waiting (the debug fault hooks
// use it to occupy the worker deterministically). The result is
// discarded.
func (sup *Supervisor) DoAsync(ctx context.Context, fn JobFunc) error {
	return sup.submit(&job{ctx: ctx, run: fn, done: make(chan jobResult, 1)})
}

// BeginDrain stops admission and signals the worker to finish the
// admitted queue, checkpoint the session, and stop. Idempotent and
// non-blocking; pair with AwaitDrain.
func (sup *Supervisor) BeginDrain() {
	sup.admit.Lock()
	sup.draining = true
	sup.admit.Unlock()
	sup.quitOnce.Do(func() { close(sup.quit) })
}

// AwaitDrain blocks until the worker has sealed (final checkpoint
// taken, state evicted) or the context expires.
func (sup *Supervisor) AwaitDrain(ctx context.Context) error {
	select {
	case <-sup.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop is the single worker: it runs admitted jobs in order, and on
// drain finishes the remaining queue, seals the session with a final
// checkpoint, and stops.
func (sup *Supervisor) loop() {
	for {
		select {
		case j := <-sup.queue:
			sup.finish(j, sup.runJob(j))
		case <-sup.quit:
			// BeginDrain already fenced admission (its exclusive lock
			// section), so this sweep sees every job that will ever be
			// in the queue: in-flight work finishes, nothing is dropped
			// on the floor.
			for {
				select {
				case j := <-sup.queue:
					sup.finish(j, sup.runJob(j))
				default:
					sup.seal()
					return
				}
			}
		}
	}
}

// finish hands a job its result (done is buffered, never blocks).
func (sup *Supervisor) finish(j *job, r jobResult) {
	j.done <- r
}

// seal takes the final checkpoint and retires the supervisor.
func (sup *Supervisor) seal() {
	cp := sup.sess.Checkpoint()
	sup.mu.Lock()
	sup.finalCP = cp
	sup.mu.Unlock()
	sup.setState(StateEvicted)
	close(sup.stopped)
}

// runJob executes one mutation with the full robustness envelope:
// expired-before-start jobs are skipped with a deadline error and the
// session untouched; panics are recovered, the session is rolled back
// to the pre-mutation checkpoint, and the supervisor degrades; a
// degrade-flagged failure (an aborted recovery ladder — the session
// already rolled itself back) degrades too; success returns the
// supervisor to ready.
func (sup *Supervisor) runJob(j *job) (r jobResult) {
	if j.ctx != nil && j.ctx.Err() != nil {
		return jobResult{err: fmt.Errorf("%w: %w", overlay.ErrInterrupted, j.ctx.Err())}
	}
	prev := sup.State()
	sup.setState(StateRepairing)
	cp := sup.sess.Checkpoint()
	defer func() {
		if rec := recover(); rec != nil {
			// A panic inside an epoch published nothing; a job that
			// committed before it panicked did. Restoring the pre-job
			// checkpoint covers both, so the session keeps serving
			// lookups as if the mutation never started.
			if rerr := sup.sess.Restore(cp); rerr != nil {
				panic(fmt.Sprintf("service: rollback after panic failed: %v (panic: %v)", rerr, rec))
			}
			val := fmt.Sprint(rec)
			sup.mu.Lock()
			sup.lastFault = val
			sup.mu.Unlock()
			sup.setState(StateDegraded)
			r = jobResult{err: &PanicError{Value: val, Stack: string(debug.Stack())}}
		}
	}()
	out, degrade, err := j.run(j.ctx, sup.sess)
	switch {
	case degrade:
		sup.setState(StateDegraded)
	case err != nil:
		// A typed rejection (bad arguments, expired deadline): the
		// session state did not change, neither does the machine.
		sup.setState(prev)
	default:
		sup.setState(StateReady)
	}
	return jobResult{out: out, err: err}
}
