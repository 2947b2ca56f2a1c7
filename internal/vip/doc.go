// Package vip implements the IP-tree and VIP-tree indoor indexes (Shao,
// Cheema, Taniar, Lu — PVLDB'16), the state-of-the-art indexes the IFLS
// paper builds on. In the paper's structure this package is the Section 2.2
// preliminaries made concrete: it supplies every indoor distance primitive
// (iMinD lower bounds, exact point/partition distances, nearest- and
// k-nearest-facility search) that Algorithms 1–3 in internal/core consume.
//
// # Structure
//
// The tree is built bottom-up: adjacent partitions merge into leaf nodes,
// and adjacent nodes merge level by level until a single root remains. Every
// leaf stores a door-to-door distance matrix over its own doors; every
// internal node stores a matrix over the union of its children's access
// doors; and — the "vivid" feature that turns an IP-tree into a VIP-tree —
// every leaf additionally stores the distances from each of its doors to the
// access doors of every ancestor, which turns the leaf-to-ancestor climb
// into a single lookup. Built, loaded and paged trees alike keep these
// cells in one flat heap in the index file's layout (see paged.go): a
// resident tree as one slab, a paged tree as on-disk pages.
//
// Distances stored in the matrices are exact global indoor distances
// computed on the door-to-door graph at construction time. This differs
// from the original paper in one deliberate way: the paper stores
// within-subtree distances plus first-hop doors so paths can be
// reconstructed by hopping matrices; storing global distances yields the
// same (exact) distance results with a simpler query path, and shortest
// *path* reconstruction — which the IFLS algorithms never need — is
// delegated to the d2d graph. It also makes every matrix row independent of
// every other, which is what lets Build fill them in parallel without
// inter-level barriers (see Options.Workers).
//
// # Concurrency model
//
// The package follows a build-then-share discipline:
//
//   - Build (and Load) are the only mutating phases. Build fans the matrix
//     fill out across runtime.GOMAXPROCS(0) goroutines (Options.Workers
//     overrides the width) and joins them before returning; the result is
//     bit-identical for every worker count.
//   - *Tree is immutable after Build/Load returns and safe for unlimited
//     concurrent readers: distance queries, facility searches, SavePaged, and
//     MemoryFootprint may all run at once from many goroutines against one
//     shared tree.
//   - *Explorer and *FacilitySet are per-caller values: an Explorer memoizes
//     distance vectors as it goes and is NOT safe for concurrent use — use
//     one per goroutine (they may share the tree). A FacilitySet is
//     immutable after NewFacilitySet and safe to share.
//
// See ARCHITECTURE.md at the repository root for the full ownership table.
package vip
