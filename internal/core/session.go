package core

import (
	"context"

	"github.com/indoorspatial/ifls/internal/vip"
)

// Session amortizes repeated IFLS queries on one venue — the paper's
// dynamic-crowd scenario, where the best location must be recomputed as the
// client population changes. The per-partition distance vectors computed by
// the traversal (the vip.Explorer memos) depend only on the venue, not on
// the clients or facilities, so a Session retains them across queries: the
// first query warms the cache and subsequent queries skip most of the
// matrix propagation work. A Session also owns a private Scratch, so its
// steady-state queries run at near-zero allocations (pinned by
// TestSessionSolveAllocBound).
//
// Concurrency: a Session is a single-goroutine value — every query reads
// and grows the shared explorer cache and reuses the same Scratch, so no
// Session method may run concurrently with another on the same Session.
// Use one Session per goroutine; Sessions may share the underlying tree,
// which is read-only. For concurrent batches over one tree, use
// internal/batch (pooled Scratches per worker) or give each worker its own
// Session.
type Session struct {
	t         *vip.Tree
	explorers *explorerCache
	scratch   *Scratch
}

// NewSession creates a Session over an index. Safe to call concurrently
// on a shared tree; the returned Session itself is single-goroutine.
func NewSession(t *vip.Tree) *Session {
	return &Session{
		t:         t,
		explorers: &explorerCache{byPart: make([]*vip.Explorer, t.Venue().NumPartitions())},
		scratch:   NewScratch(),
	}
}

// Exec answers one query through the package Exec, backed by the
// session's Scratch and persistent explorer cache (o.Scratch is ignored).
// Every objective shares the cache; ObjMulti's greedy rounds reuse both the
// explorer memos and the Scratch. The explorer cache stays consistent on
// cancellation — entries computed before the cancel remain valid and are
// reused by later queries. Single-goroutine, per the Session contract.
func (s *Session) Exec(ctx context.Context, q *Query, o Options) (ExecResult, error) {
	o.Scratch = s.scratch
	o.explorers = s.explorers
	return Exec(ctx, s.t, q, o)
}

// CachedPartitions reports how many partition explorers the session holds.
// Single-goroutine, per the Session contract.
func (s *Session) CachedPartitions() int { return s.explorers.size() }
