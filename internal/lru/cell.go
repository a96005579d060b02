package lru

import (
	"context"
	"sync"
)

// Cell is a build-once slot for one value: Cache.Do's rules without a
// key, a bound or a recency list. Of concurrent callers only the first
// builds, under its own ctx; a waiter whose ctx ends returns ctx.Err()
// at once; a build that failed while its builder's ctx was done is
// rebuilt by a live waiter; a failed build is not kept. The zero Cell is
// empty and ready to use; a Cell must not be copied after first use.
type Cell[V any] struct {
	mu     sync.Mutex
	val    V
	built  bool
	flight *flight[V] // the build in progress, if any
}

// Do returns the cell's value, building it if the cell is empty. build
// must not call Do on the same cell.
func (c *Cell[V]) Do(ctx context.Context, build func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		if c.built {
			v := c.val
			c.mu.Unlock()
			return v, nil
		}
		f := c.flight
		if f == nil {
			f = &flight[V]{done: make(chan struct{})}
			c.flight = f
			c.mu.Unlock()
			return f.run(ctx, build, func() {
				c.mu.Lock()
				c.flight = nil
				if f.err == nil {
					c.val, c.built = f.val, true
				}
				c.mu.Unlock()
			})
		}
		c.mu.Unlock()
		if v, err, retry := f.wait(ctx); !retry {
			return v, err
		}
	}
}

// Load returns the cell's value and whether one has been built.
func (c *Cell[V]) Load() (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val, c.built
}
