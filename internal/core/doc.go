// Package core implements the Indoor Facility Location Selection (IFLS)
// query of Rayhan et al. (EDBT'23) and the algorithms the paper evaluates.
// Exec is the one query entry point over a VIP-tree; Options.Objective
// selects the algorithm:
//
//   - ObjMinMax — the paper's efficient approach (Algorithms 2 and 3): a
//     single bottom-up incremental nearest-facility search over one VIP-tree
//     indexing existing facilities and candidate locations together, with
//     client grouping by partition, a global distance bound, and client
//     pruning per Lemma 5.1;
//   - ObjBaseline — the modified MinMax algorithm (Algorithm 1), the
//     road-network state of the art (Chen et al., SIGMOD'14) adapted to
//     indoor space on VIP-tree distance primitives;
//   - ObjMinDist and ObjMaxSum — the Section 7 objective extensions;
//   - ObjTopK and ObjMulti — top-k and greedy multi-facility variants
//     following the k-location literature the paper surveys.
//
// Every objective but the baseline runs the same bottom-up traversal (the
// traversal type); the objectives differ only in how they score its
// retrievals, prune clients, and decide at each bound.
//
// Session runs the same Exec over caches that persist across queries. The
// SolveBrute* functions are an independent exact oracle on the door-to-door
// graph, used for correctness testing.
//
// The IFLS query: given clients C, existing facilities Fe, and candidate
// locations Fn (facilities are partitions), return
//
//	argmin over n in Fn of  max over c in C of  iDist(c, NN(c, Fe ∪ {n}))
//
// i.e. the candidate that minimizes the maximum client-to-nearest-facility
// indoor distance.
//
// # Concurrency model
//
// Exec and the oracles are pure functions of their arguments: all traversal
// state (queues, per-client bookkeeping, vip.Explorer memos) is allocated
// per call — or leased from the caller's Scratch — and never escapes, and
// the *vip.Tree argument is only read. Distinct calls — same or different
// objective, same or different tree — may therefore run concurrently
// without synchronization (given distinct Scratches); internal/batch relies
// on exactly this to fan query batches across workers. The one
// stateful type is Session, which deliberately retains Explorer memos
// across queries to amortize repeated work and is therefore
// single-goroutine (use one Session per goroutine; Sessions may share a
// tree). Inputs follow the usual read-only rule: a Query and its slices
// must not be mutated while a solver runs on them, but the solvers never
// write to them, so sharing one Query across concurrent calls is safe.
package core
