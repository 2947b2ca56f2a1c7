package vip

import "github.com/indoorspatial/ifls/internal/indoor"

// Frontier receives the expansion of one dequeued tree node during a
// bottom-up best-first traversal. The query engine (internal/core) drives
// one traversal per client partition; its solver state implements Frontier
// once, and Tree.Expand applies the VIP-tree expansion rule instead of each
// objective carrying its own copy of the parent/leaf/children walk.
//
// Implementations are single-goroutine: Expand calls the hooks
// synchronously from the calling goroutine, in a deterministic order.
type Frontier interface {
	// Visit marks node n as visited for the current traversal source and
	// reports whether it was unseen. Expand only pushes unseen nodes, so a
	// false return suppresses the push (and the bound computation).
	Visit(n NodeID) bool
	// PushNode enqueues tree node n at the given lower-bound priority.
	PushNode(n NodeID, prio float64)
	// Wanted reports whether facility partition f participates in the
	// query (existing facility or candidate); unwanted partitions are
	// skipped without a bound computation.
	Wanted(f indoor.PartitionID) bool
	// PushFacility enqueues facility partition f at the given lower-bound
	// priority.
	PushFacility(f indoor.PartitionID, prio float64)
}

// Expand applies the bottom-up expansion rule for one dequeued tree node n
// reached from source partition self, using e (an Explorer rooted at self)
// for the lower bounds:
//
//   - the unvisited parent is pushed at its min-distance bound, so the
//     traversal climbs toward the root;
//   - a leaf yields its wanted facility partitions (except the source
//     itself, which callers seed upfront) at their min-distance bounds;
//   - an internal node yields its unvisited children.
//
// The hook order — parent first, then leaf partitions or children in tree
// order — is fixed; solver determinism depends on it. Expand reads only
// immutable tree structure, so concurrent calls on one Tree are safe as
// long as each Frontier (and Explorer) stays single-goroutine.
func (t *Tree) Expand(e *Explorer, self indoor.PartitionID, n NodeID, fr Frontier) {
	if parent := t.Parent(n); parent != NoNode && fr.Visit(parent) {
		fr.PushNode(parent, e.MinToNode(parent))
	}
	if t.IsLeaf(n) {
		for _, f := range t.Partitions(n) {
			if f == self {
				continue // the source partition is seeded by the caller
			}
			if fr.Wanted(f) {
				fr.PushFacility(f, e.PointToPartition(nil, f))
			}
		}
		return
	}
	for _, c := range t.Children(n) {
		if fr.Visit(c) {
			fr.PushNode(c, e.MinToNode(c))
		}
	}
}
