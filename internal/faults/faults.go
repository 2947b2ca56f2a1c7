// Package faults is the error taxonomy of the serving layer: a small, fixed
// set of sentinel errors that every failure surfaced by the public API wraps.
// Callers branch on the class with errors.Is and read details from the
// wrapped message:
//
//	a, err := ix.Query(ctx, q, ifls.QueryOptions{})
//	switch {
//	case errors.Is(err, faults.ErrCancelled):     // deadline or cancel; retry later
//	case errors.Is(err, faults.ErrInvalidQuery):  // reject the request, 4xx
//	case errors.Is(err, faults.ErrSolverPanic):   // contained crash; alert, 5xx
//	}
//
// The sentinels live in their own leaf package so that every layer (geom,
// indoor, workload, vip, core, batch, bench, and the public ifls package)
// can wrap them without import cycles. The root package re-exports them
// (ifls.ErrInvalidQuery = faults.ErrInvalidQuery, ...), so external callers
// never import this package directly.
//
// Cancellation errors additionally wrap the context's own error, so both
// errors.Is(err, faults.ErrCancelled) and errors.Is(err, context.Canceled)
// (or context.DeadlineExceeded) hold — callers that already branch on the
// standard context errors keep working.
package faults

import (
	"context"
	"errors"
	"fmt"
)

var (
	// ErrInvalidQuery classifies malformed query input: unknown partition
	// IDs, NaN or cross-level client coordinates, clients outside their
	// declared partition, empty candidate sets, or a nil query.
	ErrInvalidQuery = errors.New("ifls: invalid query")

	// ErrMalformedVenue classifies venues that fail structural validation:
	// degenerate rectangles, dangling door references, disconnected
	// partitions, or an empty venue.
	ErrMalformedVenue = errors.New("ifls: malformed venue")

	// ErrCancelled classifies early returns forced by context cancellation
	// or deadline expiry. Construct instances with Cancelled so the
	// context's own error stays in the chain.
	ErrCancelled = errors.New("ifls: cancelled")

	// ErrInvalidWorkload classifies impossible workload-generation
	// requests: an unknown client distribution or a facility selection
	// larger than the venue's room count.
	ErrInvalidWorkload = errors.New("ifls: invalid workload")

	// ErrUnknownObjective classifies requests naming an objective or
	// solver the serving layer does not provide.
	ErrUnknownObjective = errors.New("ifls: unknown objective")

	// ErrInvalidOptions classifies unusable configuration, such as
	// VIP-tree fanouts below the structural minimum.
	ErrInvalidOptions = errors.New("ifls: invalid options")

	// ErrSolverPanic classifies a panic recovered at an API boundary: the
	// failure was contained to one query, and the wrapped message carries
	// the panic value for diagnosis.
	ErrSolverPanic = errors.New("ifls: solver panic")

	// ErrOverloaded classifies admission rejections: a venue's in-flight
	// query limit is reached and the serving layer sheds the request
	// instead of queueing it. Retry after backing off; the answer paths
	// were never entered, so the request had no side effects.
	ErrOverloaded = errors.New("ifls: overloaded")

	// ErrDeadlineExceeded classifies queries terminated by a server-side
	// deadline: the configured query timeout (or the request's own clamped
	// override) expired before the traversal converged. Distinct from
	// ErrCancelled — a deadline is the server enforcing its latency
	// budget, a cancellation is the client (or a drain) abandoning the
	// work. Construct instances with Deadline.
	ErrDeadlineExceeded = errors.New("ifls: deadline exceeded")

	// ErrCorruptIndex classifies persisted indexes that fail integrity
	// verification on load: a missing or mangled header, a checksum
	// mismatch, a payload that does not decode, or decoded structure that
	// fails deep validation (out-of-range references, malformed distance
	// matrices). A corrupt index is never partially loaded — Load returns
	// this error and no tree.
	ErrCorruptIndex = errors.New("ifls: corrupt index")
)

// Cancelled wraps a context error into the taxonomy. The result satisfies
// errors.Is for both ErrCancelled and the cause (context.Canceled or
// context.DeadlineExceeded). A nil cause defaults to context.Canceled.
func Cancelled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrCancelled, cause)
}

// Deadline wraps a cause into the deadline class. The result satisfies
// errors.Is for both ErrDeadlineExceeded and context.DeadlineExceeded, so
// callers branching on the standard context error keep working. A cause
// that does not itself carry context.DeadlineExceeded (including nil, and
// the context.Canceled produced when a deadline timer cancels a shared
// flight) is replaced by context.DeadlineExceeded: the class exists to
// state *why* the work stopped, and the why is the deadline.
func Deadline(cause error) error {
	if cause == nil || !errors.Is(cause, context.DeadlineExceeded) {
		cause = context.DeadlineExceeded
	}
	return fmt.Errorf("%w: %w", ErrDeadlineExceeded, cause)
}

// Recovered converts a value recovered from a panic into an ErrSolverPanic
// error. When the panic value is itself an error it stays in the unwrap
// chain, so typed panics (e.g. geometry invariant violations) remain
// classifiable.
func Recovered(p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("%w: %w", ErrSolverPanic, err)
	}
	return fmt.Errorf("%w: %v", ErrSolverPanic, p)
}
