// Package lru is the one bounded cache the engine's layers share: a
// concurrency-safe least-recently-used map with hit, miss and eviction
// counters, and a cancel-safe build-once entry point (Do). The solver
// memo (compile.Memo) and the service's template id registry use it as
// a plain map; the session's time-travel snapshots
// (storage.SnapshotCache) and its compiled templates (core) build
// through Do. A value built once and kept for its owner's life — a
// template's next artifact, a plan built on first use — sits in a Cell,
// Do's rules for one value.
package lru

import (
	"container/list"
	"context"
	"errors"
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
	flights   map[K]*flight[V]    // builds in progress (Do); not entries yet
	cap       int
	hits      int64
	misses    int64
	evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one build in progress: its builder fills val and err and
// closes done; waiters read them after done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	// cancelled: the build failed while its builder's context was done,
	// so the failure is the builder's, not the key's.
	cancelled bool
}

// errBuildPanicked is what the waiters of a build that panicked get.
var errBuildPanicked = errors.New("lru: build panicked")

// New builds an empty cache holding at most cap entries (cap <= 0 means
// unbounded).
func New[K comparable, V any](cap int) *Cache[K, V] {
	return &Cache[K, V]{m: map[K]*list.Element{}, order: list.New(), flights: map[K]*flight[V]{}, cap: cap}
}

// Lookup returns the value cached for key, counting a hit or a miss.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

func (c *Cache[K, V]) storeLocked(key K, val V) {
	if el, ok := c.m[key]; ok {
		el.Value = entry[K, V]{key: key, val: val}
		c.order.MoveToFront(el)
		return
	}
	c.m[key] = c.order.PushFront(entry[K, V]{key: key, val: val})
	c.evictLocked()
}

func (c *Cache[K, V]) evictLocked() {
	for c.cap > 0 && c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.m, back.Value.(entry[K, V]).key)
		c.order.Remove(back)
		c.evictions++
	}
}

// Do returns the value cached for key, building it on a miss. Of
// concurrent callers with one key only the first builds, under its own
// ctx; the others wait for that build and share its value. The rules:
//
//   - an entry still being built is not an entry yet: it is neither
//     counted against the bound nor evictable;
//   - a waiter whose ctx ends returns ctx.Err() at once, and the build
//     goes on for the others;
//   - a build that failed while its builder's ctx was done is the
//     builder's failure: a waiter whose own ctx is alive builds again;
//   - a failed build is not retained: its waiters get its error, the
//     next caller builds again;
//   - hits count shared completed values (cached or joined) and misses
//     count completed builds; failed and abandoned attempts count
//     neither.
//
// build must not call Do on the same cache with the same key.
func (c *Cache[K, V]) Do(ctx context.Context, key K, build func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		if el, ok := c.m[key]; ok {
			c.hits++
			c.order.MoveToFront(el)
			c.mu.Unlock()
			return el.Value.(entry[K, V]).val, nil
		}
		f, joined := c.flights[key]
		if !joined {
			f = &flight[V]{done: make(chan struct{})}
			c.flights[key] = f
		}
		c.mu.Unlock()
		if !joined {
			// The value enters the cache on success; the flight resolves
			// either way.
			return f.run(ctx, build, func() {
				c.mu.Lock()
				delete(c.flights, key)
				if f.err == nil {
					c.misses++
					c.storeLocked(key, f.val)
				}
				c.mu.Unlock()
			})
		}
		v, err, retry := f.wait(ctx)
		if retry {
			continue
		}
		if err == nil {
			c.mu.Lock()
			c.hits++
			if el, ok := c.m[key]; ok {
				c.order.MoveToFront(el)
			}
			c.mu.Unlock()
		}
		return v, err
	}
}

// run runs build as f's builder under ctx and resolves f: publish
// records the outcome (under its owner's lock), then f's waiters are
// released — also when build panics, so that no waiter is left parked.
func (f *flight[V]) run(ctx context.Context, build func() (V, error), publish func()) (V, error) {
	f.err = errBuildPanicked
	defer func() {
		publish()
		close(f.done)
	}()
	f.val, f.err = build()
	f.cancelled = f.err != nil && ctx.Err() != nil
	return f.val, f.err
}

// wait waits for f's outcome as long as ctx allows. retry reports that
// the build failed because its builder's ctx ended while ctx is alive:
// the caller builds again.
func (f *flight[V]) wait(ctx context.Context) (val V, err error, retry bool) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return val, ctx.Err(), false // our deadline; don't wait out the build
	}
	switch {
	case f.err == nil:
		return f.val, nil, false
	case !f.cancelled:
		return val, f.err, false
	case ctx.Err() != nil:
		return val, ctx.Err(), false
	}
	return val, nil, true
}

// Touch refreshes key's recency, if it is resident, without counting a
// hit.
func (c *Cache[K, V]) Touch(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
	}
}

// Range calls fn for every entry resident when it was called, in no
// particular order and without touching recency or counters. fn runs
// outside the cache's lock, so it may call the cache.
func (c *Cache[K, V]) Range(fn func(K, V)) {
	c.mu.Lock()
	resident := make([]entry[K, V], 0, len(c.m))
	for _, el := range c.m {
		resident = append(resident, el.Value.(entry[K, V]))
	}
	c.mu.Unlock()
	for _, e := range resident {
		fn(e.key, e.val)
	}
}

// Remove drops key's entry and reports whether there was one. It is not
// an eviction.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if ok {
		delete(c.m, key)
		c.order.Remove(el)
	}
	return ok
}

// SetCap changes the bound (cap <= 0 means unbounded), evicting at once
// if the cache is over the new one.
func (c *Cache[K, V]) SetCap(cap int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = cap
	c.evictLocked()
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

// Len returns the number of resident entries (builds in progress are
// not entries yet).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
