// Package batch answers one IFLS query at a time over a shared, read-only
// VIP-tree: Execute is the one query path of the serving daemon
// (internal/server) and the library facade (package ifls).
//
// The paper (Section 6) evaluates by running many independent queries
// against an index that is built once offline — exactly the access pattern
// of a deployed location-selection service, where concurrent users ask
// "where should the next facility go?" against the same venue. Execute
// answers any of the core.Exec objectives — MinMax of Algorithms 2–3, the
// Algorithm 1 baseline, the Section 7 MinDist/MaxSum extensions, top-k,
// and greedy multi-facility — so validation, pooling, panic containment,
// and metrics observation have one implementation. Callers that want many
// queries at once call Execute from as many goroutines as they like; the
// daemon does it from net/http's per-request goroutines.
//
// # Concurrency model
//
// The safety argument is the ownership split documented in internal/vip
// and internal/core: a *vip.Tree is immutable after Build and safe for any
// number of concurrent readers, while all mutable solver state (core's
// internal traversal state and its vip.Explorer memos) is derived per
// query on a Scratch the call leases alone from a pool, and never escapes.
// Concurrent calls share only the tree and their read-only query bodies.
//
// Guarantees of Execute:
//
//   - Each outcome is identical to a sequential loop's, whatever the number
//     of concurrent callers (solvers are deterministic; tests assert
//     byte-identical results).
//   - A query that fails — panicking solver, unknown objective, missing
//     or invalid query body, or cancellation — records its error in
//     Result.Err and affects no other query. Every error wraps an
//     internal/faults sentinel, so callers classify failures with
//     errors.Is.
//   - Each query body is validated against the tree's venue before its
//     solver runs (ErrInvalidQuery on failure), and the query runs inside
//     a recover scope: a panic anywhere in its execution becomes its own
//     ErrSolverPanic.
//   - A context already done records ErrCancelled wrapping ctx.Err()
//     without running; a cancel mid-solve interrupts the query at its
//     solver's cancellation checkpoints, so every Result is either
//     finished or cleanly cancelled.
package batch
