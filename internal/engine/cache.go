package engine

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
)

// queryCache is a bounded LRU for query results, shared by every index
// in a Catalog. Keys embed the owning entry's generation number, so a
// Reload — which bumps the generation — instantly orphans every cached
// result of the old index state: stale keys can never be looked up
// again and age out of the LRU like any other cold entry. That makes
// invalidation O(1) and lock-free with respect to the cache itself.
//
// Values are stored and returned by reference; callers must treat
// cached slices as immutable (Engine's query methods already promise
// this to their callers).
type queryCache struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recently used
	byK          map[string]*list.Element
	hits, misses uint64
}

type cacheItem struct {
	key string
	val any
}

// newQueryCache returns a cache holding up to capacity entries;
// capacity <= 0 disables caching (every lookup misses).
func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap: capacity,
		ll:  list.New(),
		byK: make(map[string]*list.Element),
	}
}

// searchKey builds the cache key for a Search result: the index name,
// the entry generation the result was computed against, and the SHA-256
// of the query's canonical binary encoding. Every retrieval is a
// Query, so one key scheme covers the whole surface; hashing keeps keys
// fixed-size however long the path, and the canonical encoding
// guarantees two keys collide only if the queries are semantically
// identical (modulo a SHA-256 collision).
func searchKey(name string, gen uint64, encodedQuery []byte) string {
	sum := sha256.Sum256(encodedQuery)
	var b strings.Builder
	fmt.Fprintf(&b, "q|%s|%d|%x", name, gen, sum)
	return b.String()
}

func (c *queryCache) get(key string) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

func (c *queryCache) put(key string, val any) {
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

// stats reports lifetime hit/miss counters (for /v1/indexes and tests).
func (c *queryCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
