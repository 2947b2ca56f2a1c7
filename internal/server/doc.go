// Package server is the HTTP serving layer: a long-running multi-venue IFLS
// query service over the existing engine stack (core.Exec via
// internal/batch, typed errors via internal/faults, metrics via
// internal/obs). The root ifls package wraps it as ifls.NewServer and
// cmd/iflsd runs it as a daemon; SERVING.md is the operator-facing
// reference for everything this package exposes.
//
// # Request lifecycle
//
// Every query request passes through five stages, in order:
//
//	admit    → draining check, per-venue in-flight limit (faults.ErrOverloaded)
//	validate → JSON decode, venue lookup, then Query.Validate inside the engine
//	coalesce → identical in-flight queries share one execution (singleflight)
//	execute  → batch.Execute: pooled Scratch, one core.Exec, span trace
//	respond  → faults taxonomy mapped to an HTTP status, JSON body
//
// # Coalescing
//
// The scaling lever for many concurrent clients is request coalescing, and
// it is always on: every query runs through the coalescer, and one that
// shares its fingerprint with no in-flight query leads its own flight. All
// concurrent queries with the same fingerprint — venue, objective, K, Fe,
// Fn, and client set, compared byte-exactly, never by hash alone — share a
// single bottom-up traversal. The first such query (the leader) executes;
// the rest (waiters) block until the leader finishes and then fan the one
// result out. The shared flight runs under the server's lifecycle context,
// not any single request's, so a waiter cancelling — or the leader's own
// client disconnecting — never aborts work other clients are waiting on.
// A flight dies in exactly three ways: the server drains, the flight's
// deadline (the max across its participants' budgets) fires, or every
// participant departs and the abandon-grace timer reaps the flight before
// a retry adopts it.
//
// # Deadlines and reaping
//
// Options.QueryTimeout bounds every query's wall time; a request may
// shorten (never extend) its own budget with the timeout_ms body field.
// Past the deadline the request terminates with 504 deadline_exceeded
// (faults.ErrDeadlineExceeded) and the traversal is cancelled at its next
// checkpoint. Coalesced flights carry the maximum deadline of their
// participants, extended as later-deadlined requests join. When the last
// participant leaves a flight, a grace timer (a fixed 100ms) starts;
// unless a retry joins first, the flight is cancelled and Metrics counts
// it under flights_reaped. Shed (429) and draining (503) responses carry a
// fixed Retry-After of one second. Hooks (BeforeExecute, BeforeBuild) are
// seams for fault injection — see internal/chaos.
//
// # Shutdown
//
// Server.Shutdown drains: readiness flips to 503 and new queries are
// refused immediately, in-flight queries (including shared flights) run to
// completion and return complete answers, and only after the drain (or its
// deadline) does the lifecycle context cancel whatever is left. Pair it
// with http.Server.Shutdown, which performs the matching connection-level
// drain; cmd/iflsd wires both to SIGINT/SIGTERM.
//
// # Concurrency
//
// A Server and its Registry are safe for concurrent use. All per-query
// mutable state is leased per request (batch.Execute's pooled Scratch);
// the coalescer's flight map is the only shared mutable structure on the
// query path and is guarded by one mutex taken only at flight start and
// end, never during a traversal.
package server
