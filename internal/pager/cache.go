package pager

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Metrics receives the cache's counter events; *obs.Metrics satisfies it
// structurally, which keeps this package dependency-free. All methods may
// be called concurrently; a nil Metrics is skipped.
type Metrics interface {
	// PageCacheHit records a page served from the cache.
	PageCacheHit()
	// PageCacheMiss records a page fault that went to the source.
	PageCacheMiss()
	// PageCacheEviction records a page dropped to stay inside the budget.
	PageCacheEviction()
	// PageRead records one physical page read from the source.
	PageRead()
}

// Stats is a point-in-time copy of a cache's own counters, for callers
// without an obs pipeline (tests, benchmarks, one-shot dumps).
type Stats struct {
	// Hits and Misses partition Page calls; Evictions counts pages dropped
	// under budget pressure; PagesRead counts physical source reads (at
	// least Misses; more under concurrent faults on one page).
	Hits, Misses, Evictions, PagesRead int64
	// CachedBytes and CachedPages describe the current residency.
	CachedBytes int64
	CachedPages int
}

// Cache is an LRU cache of decoded pages over a FilePager with a byte
// budget: Page returns the requested page from memory when resident,
// otherwise faults it in — one read, one checksum, one call of the decode
// hook — and evicts least-recently-used pages until the budget holds
// again. Each resident page is charged its payload size (PageSize bytes)
// whatever its decoded form. A budget smaller than one page effectively
// disables caching (every call reads and decodes its page) but stays
// correct — decoded pages are immutable and remain valid after eviction.
//
// Safe for concurrent use. Faults read and decode outside the lock, so a
// slow read never blocks hits on other pages; concurrent faults on the
// same page may each read it once (the duplicates are dropped, counted in
// PagesRead but not cached twice). A decode error is returned to the
// caller and nothing is cached, so the next call on that page reads and
// decodes it again.
type Cache[P any] struct {
	src     *FilePager
	budget  int64
	metrics Metrics
	decode  func(i int, payload []byte) (P, error)
	charge  int64 // bytes charged per resident page

	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *cacheEntry[P]
	entries map[int]*list.Element
	used    int64

	hits, misses, evictions, pagesRead atomic.Int64
}

// cacheEntry is one resident decoded page.
type cacheEntry[P any] struct {
	page int
	val  P
}

// NewCache returns an LRU cache over src holding at most budgetBytes of
// pages (0 or negative caches nothing). decode turns page i's verified
// payload into the cached value; it runs once per fault and must return a
// value callers may share read-only across goroutines. Counter events go
// to m when non-nil.
func NewCache[P any](src *FilePager, budgetBytes int64, m Metrics, decode func(i int, payload []byte) (P, error)) *Cache[P] {
	return &Cache[P]{
		src:     src,
		budget:  budgetBytes,
		metrics: m,
		decode:  decode,
		charge:  int64(src.Params().PageSize),
		ll:      list.New(),
		entries: map[int]*list.Element{},
	}
}

// Budget returns the configured byte budget.
func (c *Cache[P]) Budget() int64 { return c.budget }

// Page returns page i decoded, from the cache or from the source. A read
// or checksum failure returns the source's error; a decode failure returns
// the hook's error. Neither is cached.
func (c *Cache[P]) Page(i int) (P, error) {
	c.mu.Lock()
	if el, ok := c.entries[i]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry[P]).val
		c.mu.Unlock()
		c.hits.Add(1)
		if c.metrics != nil {
			c.metrics.PageCacheHit()
		}
		return val, nil
	}
	c.mu.Unlock()

	c.misses.Add(1)
	if c.metrics != nil {
		c.metrics.PageCacheMiss()
	}
	var zero P
	payload, err := c.src.ReadPage(i)
	if err != nil {
		return zero, err
	}
	c.pagesRead.Add(1)
	if c.metrics != nil {
		c.metrics.PageRead()
	}
	val, err := c.decode(i, payload)
	if err != nil {
		return zero, err
	}

	c.mu.Lock()
	if _, ok := c.entries[i]; !ok && c.budget > 0 {
		c.entries[i] = c.ll.PushFront(&cacheEntry[P]{page: i, val: val})
		c.used += c.charge
		for c.used > c.budget && c.ll.Len() > 0 {
			back := c.ll.Back()
			ent := back.Value.(*cacheEntry[P])
			c.ll.Remove(back)
			delete(c.entries, ent.page)
			c.used -= c.charge
			c.evictions.Add(1)
			if c.metrics != nil {
				c.metrics.PageCacheEviction()
			}
		}
	}
	c.mu.Unlock()
	return val, nil
}

// Stats returns a copy of the cache's counters.
func (c *Cache[P]) Stats() Stats {
	c.mu.Lock()
	bytes, pages := c.used, c.ll.Len()
	c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		PagesRead:   c.pagesRead.Load(),
		CachedBytes: bytes,
		CachedPages: pages,
	}
}

// Close drops all resident pages and closes the source.
func (c *Cache[P]) Close() error {
	c.mu.Lock()
	c.ll.Init()
	c.entries = map[int]*list.Element{}
	c.used = 0
	c.mu.Unlock()
	return c.src.Close()
}
