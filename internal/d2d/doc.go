// Package d2d implements the door-to-door graph of the indoor
// distance-aware model (Lu, Cao, Jensen — ICDE'12): vertices are doors and
// an edge joins two doors that border a common partition, weighted by the
// intra-partition travel distance. Dijkstra over this graph yields exact
// indoor shortest distances. In the paper's structure this is the iDist
// ground truth of Section 2 that every reported distance reduces to.
//
// The package serves two roles in this repository: it is the ground-truth
// oracle that the VIP-tree distance computations are tested against (and
// that SolveBrute in internal/core evaluates objectives on), and it is the
// machinery that populates the VIP-tree distance matrices at index
// construction time — parallel Build in internal/vip runs many concurrent
// FromDoor Dijkstras against one shared Graph.
//
// A Graph is an immutable CSR adjacency plus a publish-once table of
// complete shortest-path trees, one slot per source door. Route queries
// (PointRoute, Path, DoorToDoor) fill a slot the first time they leave
// from its door and read it ever after; nothing else touches the table,
// so index construction and the point oracles leave it empty.
//
// Masked graphs answer time-of-day queries, where doors close on a
// schedule. Graph.Masked filters a graph's CSR by an open-door mask,
// keeping edge order and dropping every edge that touches a closed door,
// and a search never starts from a closed door. Every method then runs
// unchanged on the masked graph: a distance to, from or through a closed
// door is Unreachable, and every other distance is bit-identical to New
// over the venue with the closed doors removed. The masked graph has its
// own route-tree table, so a timed query never publishes into the static
// graph's. Its one Dijkstra is the static graph's: dijkstra is the
// repository's only door-graph search.
//
// Concurrency: a *Graph is safe for unlimited concurrent use. A tree is
// published with a compare-and-swap and never written again. Every other
// call allocates the distance arrays it returns and takes its priority
// queue from a sync.Pool, resetting it before putting it back, so any mix
// of FromDoor / Path / PointToPoint calls may run in parallel.
package d2d
