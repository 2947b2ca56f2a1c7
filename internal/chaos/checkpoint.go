package chaos

// Checkpoint fault injection for the query layer: the cancellation
// checkpoints threaded through the solvers and the panic containment at
// package boundaries.
//
// The primitive is a counting context ([CancelAtCheckpoint]) whose Err
// method trips after a chosen number of polls. Because every solver
// checkpoint is an explicit ctx.Err() poll, the counting context turns
// "cancel somewhere in the middle of a solve" — inherently racy with a
// real context.CancelFunc — into "cancel at exactly the n-th checkpoint",
// which tests can sweep exhaustively. Production code never uses it.

import (
	"context"
	"sync/atomic"
	"time"
)

// Context is a context.Context whose Err method reports cancellation
// starting from the n-th call. It is safe for concurrent use; polls from
// multiple goroutines (the parallel matrix fill, batch workers) share one
// counter, so "the n-th poll" is global across the run.
//
// Done returns a non-nil channel so that context-aware code paths arm
// themselves (the solvers skip polling entirely for contexts that can
// never be cancelled, such as context.Background). The channel is never
// closed: code that selects on Done instead of polling Err will not
// observe the injected cancellation, which is intentional — the solver
// contract is Err polling at checkpoints.
type Context struct {
	parent context.Context
	done   chan struct{}
	polls  atomic.Int64
	trip   int64
}

// CancelAtCheckpoint returns a Context that starts reporting
// context.Canceled on the n-th Err poll (1-based). n <= 0 cancels on the
// first poll. A very large n never trips and can be used to count the
// checkpoints a call site passes through (see Polls).
func CancelAtCheckpoint(n int) *Context {
	return &Context{
		parent: context.Background(),
		done:   make(chan struct{}),
		trip:   int64(n),
	}
}

// Err counts the poll and returns context.Canceled once the trip point is
// reached, nil before it.
func (c *Context) Err() error {
	if c.polls.Add(1) >= c.trip {
		return context.Canceled
	}
	return c.parent.Err()
}

// Polls reports how many times Err has been polled so far. After a run
// with a non-tripping context, this is the number of cancellation
// checkpoints the call passed through.
func (c *Context) Polls() int { return int(c.polls.Load()) }

// Tripped reports whether the trip point has been reached.
func (c *Context) Tripped() bool { return c.polls.Load() >= c.trip }

// Done returns a non-nil, never-closed channel (see the type comment).
func (c *Context) Done() <-chan struct{} { return c.done }

// Deadline reports no deadline.
func (c *Context) Deadline() (time.Time, bool) { return c.parent.Deadline() }

// Value delegates to the parent (always nil here).
func (c *Context) Value(key any) any { return c.parent.Value(key) }

// CountCheckpoints runs fn with a non-tripping counting context and
// returns how many cancellation checkpoints it polled. Tests use it to
// size an exhaustive sweep of trip points.
func CountCheckpoints(fn func(ctx context.Context)) int {
	c := CancelAtCheckpoint(1 << 40)
	fn(c)
	return c.Polls()
}
