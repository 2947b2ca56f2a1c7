// Package batch executes independent IFLS queries concurrently over one
// shared, read-only VIP-tree.
//
// The paper (Section 6) evaluates by running many independent queries
// against an index that is built once offline — exactly the access pattern
// of a deployed location-selection service, where concurrent users ask
// "where should the next facility go?" against the same venue. This
// package is that serving layer in miniature: Run fans a slice of queries
// (any mix of the core.Exec objectives — MinMax of Algorithms 2–3, the
// Algorithm 1 baseline, the Section 7 MinDist/MaxSum extensions, top-k, and
// greedy multi-facility) across a bounded worker pool and collects
// per-query results plus aggregate counters. Execute is one step of that
// worker loop for a single query: the serving daemon (internal/server) and
// the library facade (package ifls) answer every query through it, so
// validation, pooling, panic containment, and metrics observation have one
// implementation.
//
// # Concurrency model
//
// The safety argument is the ownership split documented in internal/vip
// and internal/core: a *vip.Tree is immutable after Build and safe for any
// number of concurrent readers, while all mutable solver state
// (core's internal traversal state and its vip.Explorer memos) is created
// per query inside the worker that runs it and never escapes. Workers
// share only the tree, the input slice (read-only), and disjoint elements
// of the result slice — worker i writes Results[j] only for the j it
// claimed, so no two goroutines ever touch the same element.
//
// Guarantees of Run:
//
//   - Results[i] always corresponds to queries[i], whatever the worker
//     count, and each query's outcome is identical to what a sequential
//     loop would produce (solvers are deterministic; tests assert
//     byte-identical results across worker counts).
//   - A query that fails — panicking solver, unknown objective, missing
//     or invalid query body, or cancellation — records its error in
//     Results[i].Err; the rest of the batch is unaffected (no
//     partial-batch abort). Every error wraps an internal/faults
//     sentinel, so callers classify failures with errors.Is.
//   - Each query body is validated against the tree's venue before its
//     solver runs (ErrInvalidQuery on failure), and each worker runs
//     inside a recover scope: a panic anywhere in a query's execution
//     becomes that query's own ErrSolverPanic.
//   - Cancelling the context stops unstarted queries promptly (they
//     record ErrCancelled wrapping ctx.Err()) and interrupts queries
//     already executing at their solvers' cancellation checkpoints, so
//     every Result is either finished or cleanly cancelled. Cancelled
//     queries count toward Counters.Errors but not Counters.Queries.
//
// A Report and its Counters are plain values owned by the caller once Run
// returns; Run itself may be called concurrently on the same tree.
package batch
