// Package lru is the one bounded cache the engine's layers share: a
// concurrency-safe least-recently-used map with hit, miss and eviction
// counters. The solver memo (compile.Memo), the session's compiled
// template cache (core) and the service's template id registry are all
// instances of it.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, evicting the least recently used entry
// once it holds more than its capacity. Lookups and stores both refresh
// an entry's recency. Values are shared: callers treat them as
// read-only or synchronize on their own.
type Cache[K comparable, V any] struct {
	// A plain mutex: even lookups write (hit/miss and recency
	// accounting), so a reader/writer split would buy nothing.
	mu        sync.Mutex
	m         map[K]*list.Element // of entry[K, V]
	order     *list.List          // front = most recently used
	cap       int
	hits      int64
	misses    int64
	evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds an empty cache holding at most cap entries (cap <= 0 means
// unbounded).
func New[K comparable, V any](cap int) *Cache[K, V] {
	return &Cache[K, V]{m: map[K]*list.Element{}, order: list.New(), cap: cap}
}

// Lookup returns the value cached for key, counting a hit or a miss.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key)
}

func (c *Cache[K, V]) lookupLocked(key K) (V, bool) {
	el, ok := c.m[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(entry[K, V]).val, true
}

// Store inserts or replaces the value for key, evicting the least
// recently used entries past the bound.
func (c *Cache[K, V]) Store(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, val)
}

// LoadOrStore returns the value already cached for key (a hit), or
// stores val and returns it (a miss). The check and the store are one
// critical section, so of N concurrent callers with one key exactly one
// sees loaded == false.
func (c *Cache[K, V]) LoadOrStore(key K, val V) (actual V, loaded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.lookupLocked(key); ok {
		return cached, true
	}
	c.storeLocked(key, val)
	return val, false
}

func (c *Cache[K, V]) storeLocked(key K, val V) {
	if el, ok := c.m[key]; ok {
		el.Value = entry[K, V]{key: key, val: val}
		c.order.MoveToFront(el)
		return
	}
	c.m[key] = c.order.PushFront(entry[K, V]{key: key, val: val})
	for c.cap > 0 && c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.m, back.Value.(entry[K, V]).key)
		c.order.Remove(back)
		c.evictions++
	}
}

// Remove drops key's entry, if any. It is not an eviction.
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		delete(c.m, key)
		c.order.Remove(el)
	}
}

// Stats reports lookup hits and misses so far.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports entries dropped by the bound so far.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
