package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Store(k, i)
	}
	if c.Len() != 3 || c.Evictions() != 1 {
		t.Fatalf("Len = %d, Evictions = %d, want 3, 1", c.Len(), c.Evictions())
	}
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("oldest key survived the bound")
	}
	// A lookup refreshes: touching b makes c the next victim.
	if v, ok := c.Lookup("b"); !ok || v != 1 {
		t.Fatalf("Lookup(b) = %d, %v", v, ok)
	}
	c.Store("e", 4)
	if _, ok := c.Lookup("c"); ok {
		t.Fatal("recency not honored: c should have gone before b")
	}
	if _, ok := c.Lookup("b"); !ok {
		t.Fatal("recently used key b evicted")
	}
}

func TestStoreRefreshesAndReplaces(t *testing.T) {
	c := New[string, int](2)
	c.Store("a", 1)
	c.Store("b", 2)
	c.Store("a", 10) // replaces in place and makes b the victim
	if c.Len() != 2 || c.Evictions() != 0 {
		t.Fatalf("re-storing a key grew the cache: Len = %d, Evictions = %d", c.Len(), c.Evictions())
	}
	c.Store("c", 3)
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("b survived although a was refreshed after it")
	}
	if v, ok := c.Lookup("a"); !ok || v != 10 {
		t.Fatalf("Lookup(a) = %d, %v, want the replaced value 10", v, ok)
	}
}

func TestCounters(t *testing.T) {
	c := New[int, string](0)
	c.Lookup(1)
	c.Store(1, "x")
	c.Lookup(1)
	c.Lookup(1)
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses, want 2, 1", hits, misses)
	}
	c.Remove(1)
	c.Remove(1) // absent: no-op
	if c.Len() != 0 || c.Evictions() != 0 {
		t.Fatalf("Remove counted as eviction or left the entry: Len = %d, Evictions = %d", c.Len(), c.Evictions())
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("removed key still resident")
	}
}

func TestUnbounded(t *testing.T) {
	for _, cap := range []int{0, -1} {
		c := New[int, int](cap)
		for i := 0; i < 10_000; i++ {
			c.Store(i, i)
		}
		if c.Len() != 10_000 || c.Evictions() != 0 {
			t.Fatalf("cap %d: Len = %d, Evictions = %d, want everything resident", cap, c.Len(), c.Evictions())
		}
	}
}

// TestDoSingleBuilder: of N concurrent callers with one key, exactly
// one builds; the rest share the builder's value.
func TestDoSingleBuilder(t *testing.T) {
	c := New[string, *int](4)
	const n = 16
	got := make([]*int, n)
	var builds atomic.Int32
	release := make(chan struct{})
	var asked sync.WaitGroup
	for g := 0; g < n; g++ {
		asked.Add(1)
		go func(g int) {
			defer asked.Done()
			got[g], _ = c.Do(context.Background(), "k", func() (*int, error) {
				builds.Add(1)
				<-release
				v := g
				return &v, nil
			})
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	asked.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds, want 1", b)
	}
	for g := 1; g < n; g++ {
		if got[g] != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", g)
		}
	}
	if hits, misses := c.Stats(); misses != 1 || hits != n-1 {
		t.Fatalf("Stats = %d hits, %d misses, want %d, 1", hits, misses, n-1)
	}
}

// inFlight starts a build of key that blocks until release is closed,
// and returns once the build is running.
func inFlight[K comparable](c *Cache[K, int], ctx context.Context, key K, val int, release <-chan struct{}) <-chan error {
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, key, func() (int, error) {
			close(started)
			select {
			case <-release:
				return val, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
		done <- err
	}()
	<-started
	return done
}

// TestDoBuilderCancelledWaiterRebuilds: a build cut short by its
// builder's cancellation is the builder's failure; a waiter whose own
// context is alive builds the value itself instead of inheriting it.
func TestDoBuilderCancelledWaiterRebuilds(t *testing.T) {
	c := New[string, int](4)
	ctx, cancel := context.WithCancel(context.Background())
	builder := inFlight(c, ctx, "k", 1, nil)
	waiter := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), "k", func() (int, error) { return 2, nil })
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join
	cancel()
	if err := <-builder; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder: err = %v, want its own cancellation", err)
	}
	if v := <-waiter; v != 2 {
		t.Fatalf("waiter got %d, want its own build's 2", v)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses, want 0, 1: the abandoned build counts nothing", hits, misses)
	}
}

// TestDoWaiterDeadline: a waiter whose own deadline ends returns at
// once; the build goes on and serves the next caller.
func TestDoWaiterDeadline(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	builder := inFlight(c, context.Background(), "k", 7, release)
	// The build outlasts the waiter's deadline by far, but does end.
	time.AfterFunc(500*time.Millisecond, func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Do(ctx, "k", func() (int, error) { t.Error("a waiter built"); return 0, nil })
	if d := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || d > 250*time.Millisecond {
		t.Fatalf("waiter: err = %v after %v, want DeadlineExceeded at its deadline", err, d)
	}
	if err := <-builder; err != nil {
		t.Fatal(err)
	}
	if v, err := c.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("rebuilt") }); v != 7 || err != nil {
		t.Fatalf("next caller: %d, %v, want the finished build's 7", v, err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses, want 1, 1: the waiter that gave up counts nothing", hits, misses)
	}
}

// TestDoInFlightSurvivesBound: a build in progress is not an entry, so
// any amount of traffic past the bound leaves it alone, and it enters
// the cache when it completes.
func TestDoInFlightSurvivesBound(t *testing.T) {
	const capacity, extra = 4, 10
	c := New[int, int](capacity)
	release := make(chan struct{})
	builder := inFlight(c, context.Background(), -1, -1, release)
	for i := 0; i < capacity+extra; i++ {
		if _, err := c.Do(context.Background(), i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != capacity || c.Evictions() != extra {
		t.Fatalf("Len = %d, Evictions = %d, want %d, %d", c.Len(), c.Evictions(), capacity, extra)
	}
	close(release)
	if err := <-builder; err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Lookup(-1); !ok || v != -1 {
		t.Fatalf("the long build's value is not resident: %d, %v", v, ok)
	}
	if _, ok := c.Lookup(extra); ok {
		t.Fatal("the least recently used entry survived the long build's arrival")
	}
	if _, ok := c.Lookup(capacity + extra - 1); !ok {
		t.Fatal("the newest entry was evicted")
	}
}

// TestDoFailedBuildNotRetained: the waiters of a failed build share its
// error, and the next caller builds again. (A waiter that arrives after
// the failure builds on its own and fails the same way.)
func TestDoFailedBuildNotRetained(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	builder := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		builder <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "k", func() (int, error) { return 0, boom })
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join
	close(release)
	if err := <-builder; !errors.Is(err, boom) {
		t.Fatalf("builder: %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter: %v, want the build's boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("a failed build was retained")
	}
	if v, err := c.Do(context.Background(), "k", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Fatalf("next caller: %d, %v, want a fresh build's 3", v, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("Stats = %d hits, %d misses, want 0, 1", hits, misses)
	}
}

// TestDoPanicReleasesWaiters: a build that panics leaves no waiter
// parked and nothing cached. (A waiter that arrives after the panic
// builds on its own, and fails.)
func TestDoPanicReleasesWaiters(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("build")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("built after the panic") })
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join
	close(release)
	if err := <-waiter; err == nil {
		t.Fatal("the waiter of a panicked build got no error")
	}
	if c.Len() != 0 {
		t.Fatal("a panicked build was retained")
	}
}

// TestDoCounters: hits are shared completed values, misses completed
// builds, evictions the bound's drops; Remove and failures count none.
func TestDoCounters(t *testing.T) {
	c := New[int, int](2)
	build := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	for _, k := range []int{1, 2, 1, 3, 1, 2} {
		if _, err := c.Do(context.Background(), k, build(k)); err != nil {
			t.Fatal(err)
		}
	}
	// 1 miss, 2 miss, 1 hit, 3 miss (evicts 2), 1 hit, 2 miss (evicts 3).
	if hits, misses := c.Stats(); hits != 2 || misses != 4 {
		t.Fatalf("Stats = %d hits, %d misses, want 2, 4", hits, misses)
	}
	if ev := c.Evictions(); ev != 2 {
		t.Fatalf("Evictions = %d, want 2", ev)
	}
	c.Do(context.Background(), 9, func() (int, error) { return 0, errors.New("no") })
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	c.Do(dead, 8, func() (int, error) { return 0, dead.Err() })
	if !c.Remove(1) || c.Remove(1) {
		t.Fatal("Remove reported the wrong residency")
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 4 || c.Evictions() != 2 {
		t.Fatalf("failures or Remove moved the counters: %d hits, %d misses, %d evictions", hits, misses, c.Evictions())
	}
}

// TestDoStress is the race detector workout: many goroutines over few
// keys and a small bound, with builders that fail, are cancelled, or
// succeed. Every successful Do returns the key's one true value.
func TestDoStress(t *testing.T) {
	c := New[int, int](3)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := (g + i) % 7
				ctx, cancel := context.WithCancel(context.Background())
				if i%5 == 0 {
					cancel()
				}
				v, err := c.Do(ctx, key, func() (int, error) {
					if i%11 == 0 {
						return 0, errors.New("flaky")
					}
					if err := ctx.Err(); err != nil {
						return 0, err
					}
					return key * 10, nil
				})
				cancel()
				if err == nil && v != key*10 {
					t.Errorf("Do(%d) = %d", key, v)
					return
				}
				c.Touch(key)
				c.Range(func(int, int) {})
				if c.Len() > 3 {
					t.Errorf("Len = %d past the bound", c.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
