package server

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"time"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/faults"
)

// queryKey renders a query's full fingerprint — venue, objective, K, Fe,
// Fn, and every client's identity and coordinates — as a canonical byte
// string. Two requests coalesce if and only if their keys are equal, so
// the key must determine the answer completely: it is the exact query, not
// a hash of it, and collisions are impossible by construction. The
// objective is its one-byte parsed value (so "" and "minmax" coalesce);
// every variable-length field is length-prefixed so no byte value inside a
// field (venue names are operator-controlled, not trusted) can shift the
// boundary between fields.
func queryKey(venue string, q batch.Query) string {
	b := make([]byte, 0, 64+len(venue)+4*(len(q.Query.Existing)+len(q.Query.Candidates))+24*len(q.Query.Clients))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(venue)))
	b = append(b, venue...)
	b = append(b, byte(q.Objective))
	b = binary.LittleEndian.AppendUint32(b, uint32(q.K))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(q.Query.Existing)))
	for _, f := range q.Query.Existing {
		b = binary.LittleEndian.AppendUint32(b, uint32(f))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(q.Query.Candidates)))
	for _, f := range q.Query.Candidates {
		b = binary.LittleEndian.AppendUint32(b, uint32(f))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(q.Query.Clients)))
	for _, c := range q.Query.Clients {
		b = binary.LittleEndian.AppendUint32(b, uint32(c.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Part))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Loc.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Loc.Y))
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Loc.Level))
	}
	return string(b)
}

// flight is one shared execution: the leader stores the result and closes
// done; waiters read res only after done is closed. The result (including
// its TopK slice) is shared read-only across all callers.
//
// Beyond the result, a flight owns two pieces of lifecycle state, both
// guarded by mu:
//
//   - A deadline. The flight runs under ctx (derived from the server's
//     lifecycle context) and carries the MAX deadline across all its
//     participants — joining with a later deadline extends the flight's
//     timer, joining with no deadline removes it. When the timer fires the
//     flight is cancelled and its result classified as
//     faults.ErrDeadlineExceeded, because every participant's budget had
//     expired.
//
//   - A participant count for abandoned-flight reaping. Every caller
//     (leader included) registers its request context; when the last live
//     participant departs, a grace timer starts, and if nobody joins
//     before it fires the flight is cancelled — shared work nobody is
//     waiting for is released instead of running to completion.
type flight struct {
	done chan struct{}
	res  batch.Result

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	refs     int       // participants whose request contexts are still live
	deadline time.Time // max deadline across participants; zero = none
	hasDL    bool      // whether deadline is armed
	dlTimer  *time.Timer
	reapT    *time.Timer
	timedOut bool // the deadline timer cancelled ctx
	reaped   bool // the reap timer cancelled ctx
	finished bool // run returned; timers are inert past this point
}

// coalescer deduplicates concurrent identical work: at most one flight per
// key runs at a time, and callers arriving while it runs share its result.
// Consecutive (non-overlapping) identical queries do not coalesce — each
// starts a fresh flight, so answers always reflect a traversal that started
// after the request arrived. Safe for concurrent use.
type coalescer struct {
	// life is the context flights derive theirs from: it outlives any
	// single request and dies on server drain.
	life context.Context
	// grace is how long an abandoned flight (zero live participants) keeps
	// running before it is reaped: abandonGrace outside tests.
	grace time.Duration
	// onReap, when non-nil, is called once per reaped flight (the
	// flights_reaped counter hook).
	onReap func()

	mu      sync.Mutex
	flights map[string]*flight

	// leaderGate, when non-nil, runs on the leader's goroutine after its
	// flight is registered and before the work executes. Tests use it to
	// hold a flight open while waiters pile on, making coalescing
	// assertions deterministic.
	leaderGate func(key string)
}

func newCoalescer(life context.Context, grace time.Duration, onReap func()) *coalescer {
	return &coalescer{
		life:    life,
		grace:   grace,
		onReap:  onReap,
		flights: map[string]*flight{},
	}
}

// newFlight builds a flight running under a cancellable child of life,
// with the leader's deadline (taken from its request context) as the
// initial flight deadline.
func (c *coalescer) newFlight(leaderCtx context.Context) *flight {
	ctx, cancel := context.WithCancel(c.life)
	f := &flight{done: make(chan struct{}), ctx: ctx, cancel: cancel}
	if dl, ok := leaderCtx.Deadline(); ok {
		f.deadline, f.hasDL = dl, true
		f.dlTimer = time.AfterFunc(time.Until(dl), f.deadlineFired)
	}
	return f
}

// deadlineFired runs when the flight's deadline timer expires: every
// participant's budget has passed, so the shared work is cancelled and the
// result will classify as ErrDeadlineExceeded.
func (f *flight) deadlineFired() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.finished {
		return
	}
	f.timedOut = true
	f.cancel()
}

// join registers one more live participant, extending the flight deadline
// to the participant's (a participant without a deadline removes the
// flight's — the flight carries the max) and disarming any pending reap.
func (f *flight) join(ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refs++
	if f.reapT != nil {
		f.reapT.Stop()
		f.reapT = nil
	}
	if !f.hasDL {
		return
	}
	dl, ok := ctx.Deadline()
	if !ok {
		// An unbounded participant: the max deadline is now "never".
		f.hasDL = false
		f.dlTimer.Stop()
		return
	}
	if dl.After(f.deadline) {
		f.deadline = dl
		f.dlTimer.Reset(time.Until(dl))
	}
}

// leave unregisters a departed participant. When the last one leaves, the
// reap grace timer starts; if it fires before anyone joins, the flight is
// cancelled and counted as reaped.
func (f *flight) leave(grace time.Duration, onReap func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refs--
	if f.refs > 0 || f.finished {
		return
	}
	f.reapT = time.AfterFunc(grace, func() {
		f.mu.Lock()
		if f.finished || f.refs > 0 {
			f.mu.Unlock()
			return
		}
		f.reaped = true
		// Count the reap before cancelling, so whoever the cancellation
		// wakes (the leader's handler, a drain) already sees it.
		if onReap != nil {
			onReap()
		}
		f.cancel()
		f.mu.Unlock()
	})
}

// finish marks the run complete and disarms both timers; it reports
// whether the deadline fired, so the leader can classify the result.
func (f *flight) finish() (timedOut bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finished = true
	if f.dlTimer != nil {
		f.dlTimer.Stop()
	}
	if f.reapT != nil {
		f.reapT.Stop()
		f.reapT = nil
	}
	return f.timedOut
}

// do executes run for key, sharing one execution among all concurrent
// callers with an equal key. Exactly one caller — the leader — runs run;
// the others wait for its result. hit reports whether this caller joined
// an existing flight.
//
// run receives the flight's context: a child of the server lifecycle
// context that is additionally cancelled when the flight's deadline (the
// max across participants' request deadlines) fires, or when the flight is
// abandoned — every participant's request context dead for longer than the
// reap grace. A waiter whose own ctx expires stops waiting and returns a
// faults error (ErrDeadlineExceeded for a deadline, ErrCancelled for a
// hang-up), but its departure alone never aborts the flight: the work dies
// only on drain, flight-wide deadline, or abandonment.
func (c *coalescer) do(ctx context.Context, key string, run func(context.Context) batch.Result) (res batch.Result, hit bool, err error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		f.join(ctx)
		c.mu.Unlock()
		select {
		case <-f.done:
			// A participant that outlived its own deadline still delivers
			// the flight's complete answer; clamping happens while waiting.
			return f.res, true, nil
		case <-ctx.Done():
			f.leave(c.grace, c.onReap)
			if ctx.Err() == context.DeadlineExceeded {
				return batch.Result{}, true, faults.Deadline(ctx.Err())
			}
			return batch.Result{}, true, faults.Cancelled(ctx.Err())
		}
	}
	f := c.newFlight(ctx)
	f.refs = 1
	c.flights[key] = f
	c.mu.Unlock()

	// The leader's goroutine is busy executing the flight, so a watcher
	// tracks its request context for the participant count. It exits with
	// the flight: no goroutine outlives the work it watches.
	leaderGone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			f.leave(c.grace, c.onReap)
		case <-leaderGone:
		}
	}()

	if c.leaderGate != nil {
		c.leaderGate(key)
	}
	f.res = run(f.ctx)
	if f.finish() && f.res.Err != nil && errorsIsCancel(f.res.Err) {
		// The flight deadline fired and the solver stopped for it: the
		// terminal class is the deadline, not a generic cancellation.
		f.res.Err = faults.Deadline(f.res.Err)
	}
	close(leaderGone)

	// Unregister before signalling completion: a caller that arrives after
	// close(done) must start a fresh flight, never read a stale one.
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	return f.res, false, nil
}

// errorsIsCancel reports whether err is a cancellation-class error (the
// shape a solver returns when its context dies mid-traversal).
func errorsIsCancel(err error) bool {
	return errors.Is(err, faults.ErrCancelled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
