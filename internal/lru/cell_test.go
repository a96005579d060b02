package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The build-once protocol of Cache.Do, ported to a Cell: the names
// carry Do so that the repeated race step runs them beside the cache's.

// TestCellDoSingleBuilder: of N concurrent callers only one builds; the
// rest share the builder's value, and so does every later caller.
func TestCellDoSingleBuilder(t *testing.T) {
	var c Cell[*int]
	const n = 16
	got := make([]*int, n)
	var builds atomic.Int32
	release := make(chan struct{})
	var asked sync.WaitGroup
	for g := 0; g < n; g++ {
		asked.Add(1)
		go func(g int) {
			defer asked.Done()
			got[g], _ = c.Do(context.Background(), func() (*int, error) {
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
	if v, ok := c.Load(); !ok || v != got[0] {
		t.Fatal("Load does not return the built value")
	}
	if v, _ := c.Do(context.Background(), func() (*int, error) { t.Error("a full cell built"); return nil, nil }); v != got[0] {
		t.Fatal("a later caller got a different value")
	}
}

// cellInFlight starts a build of c that blocks until release is closed,
// and returns once the build is running.
func cellInFlight(c *Cell[int], ctx context.Context, val int, release <-chan struct{}) <-chan error {
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, func() (int, error) {
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

// TestCellDoBuilderCancelledWaiterRebuilds: a build cut short by its
// builder's cancellation is the builder's failure; a waiter whose own
// context is alive builds the value itself instead of inheriting it.
func TestCellDoBuilderCancelledWaiterRebuilds(t *testing.T) {
	var c Cell[int]
	ctx, cancel := context.WithCancel(context.Background())
	builder := cellInFlight(&c, ctx, 1, nil)
	waiter := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), func() (int, error) { return 2, nil })
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
	if v, ok := c.Load(); !ok || v != 2 {
		t.Fatalf("Load = %d, %v, want the waiter's 2", v, ok)
	}
}

// TestCellDoWaiterDeadline: a waiter whose own deadline ends returns at
// once; the build goes on and serves the next caller.
func TestCellDoWaiterDeadline(t *testing.T) {
	var c Cell[int]
	release := make(chan struct{})
	builder := cellInFlight(&c, context.Background(), 7, release)
	// The build outlasts the waiter's deadline by far, but does end.
	time.AfterFunc(500*time.Millisecond, func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Do(ctx, func() (int, error) { t.Error("a waiter built"); return 0, nil })
	if d := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || d > 250*time.Millisecond {
		t.Fatalf("waiter: err = %v after %v, want DeadlineExceeded at its deadline", err, d)
	}
	if err := <-builder; err != nil {
		t.Fatal(err)
	}
	if v, err := c.Do(context.Background(), func() (int, error) { return 0, errors.New("rebuilt") }); v != 7 || err != nil {
		t.Fatalf("next caller: %d, %v, want the finished build's 7", v, err)
	}
}

// TestCellDoFailedBuildNotRetained: the waiters of a failed build share
// its error, and the next caller builds again.
func TestCellDoFailedBuildNotRetained(t *testing.T) {
	var c Cell[int]
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	builder := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		builder <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), func() (int, error) { return 0, boom })
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
	if _, ok := c.Load(); ok {
		t.Fatal("a failed build was retained")
	}
	if v, err := c.Do(context.Background(), func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Fatalf("next caller: %d, %v, want a fresh build's 3", v, err)
	}
}

// TestCellDoPanicReleasesWaiters: a build that panics leaves no waiter
// parked and nothing built.
func TestCellDoPanicReleasesWaiters(t *testing.T) {
	var c Cell[int]
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), func() (int, error) {
			close(started)
			<-release
			panic("build")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), func() (int, error) { return 0, errors.New("built after the panic") })
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join
	close(release)
	if err := <-waiter; err == nil {
		t.Fatal("the waiter of a panicked build got no error")
	}
	if _, ok := c.Load(); ok {
		t.Fatal("a panicked build was retained")
	}
}

// TestCellDoStress is the race detector workout: many goroutines over a
// few cells, with builders that fail, are cancelled, or succeed. Every
// successful Do returns the cell's one true value, and once a cell is
// built it stays built.
func TestCellDoStress(t *testing.T) {
	cells := make([]Cell[int], 7)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % len(cells)
				ctx, cancel := context.WithCancel(context.Background())
				if i%5 == 0 {
					cancel()
				}
				_, wasBuilt := cells[k].Load()
				v, err := cells[k].Do(ctx, func() (int, error) {
					if i%11 == 0 {
						return 0, errors.New("flaky")
					}
					if err := ctx.Err(); err != nil {
						return 0, err
					}
					return k * 10, nil
				})
				cancel()
				if err == nil && v != k*10 {
					t.Errorf("cell %d: Do = %d", k, v)
					return
				}
				if wasBuilt && err != nil {
					t.Errorf("cell %d: built, yet Do failed: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
