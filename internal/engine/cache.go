package engine

import (
	"container/list"
	"sync"
)

// queryCache is a bounded LRU for query results, shared by every index
// in a Catalog. Keys embed the binding and generation they were
// computed against, so a Reload, a replacing Load or a Close followed
// by a Load — each a new binding — and an Append — a new generation —
// instantly orphan every cached result of the old index state: stale
// keys can never be looked up again and age out of the LRU like any
// other cold entry. That makes invalidation O(1) and lock-free with
// respect to the cache itself.
//
// Values are stored and returned by reference; callers must treat
// cached slices as immutable (Engine's query methods already promise
// this to their callers).
type queryCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	byK map[cacheKey]*list.Element
}

// cacheKey identifies a Search result: the entry binding (see
// entry.bind) and generation it was computed against, and the query's
// canonical binary encoding, whose self-delimiting fields make two
// keys equal only for semantically identical queries.
type cacheKey struct {
	binding, gen uint64
	query        string
}

type cacheItem struct {
	key cacheKey
	val any
}

// newQueryCache returns a cache holding up to capacity entries;
// capacity <= 0 disables caching (every lookup misses).
func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap: capacity,
		ll:  list.New(),
		byK: make(map[cacheKey]*list.Element),
	}
}

func (c *queryCache) get(key cacheKey) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

func (c *queryCache) put(key cacheKey, val any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheItem).val = val
		return
	}
	c.byK[key] = c.ll.PushFront(&cacheItem{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byK, oldest.Value.(*cacheItem).key)
	}
}

// len reports the entries resident.
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
