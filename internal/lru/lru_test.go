package lru

import (
	"sync"
	"testing"
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

// TestLoadOrStoreSingleWinner: of N concurrent callers with one key,
// exactly one stores; the rest load the winner's value.
func TestLoadOrStoreSingleWinner(t *testing.T) {
	c := New[string, *int](4)
	const n = 16
	got := make([]*int, n)
	var stored sync.WaitGroup
	for g := 0; g < n; g++ {
		stored.Add(1)
		go func(g int) {
			defer stored.Done()
			v := g
			got[g], _ = c.LoadOrStore("k", &v)
		}(g)
	}
	stored.Wait()
	for g := 1; g < n; g++ {
		if got[g] != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", g)
		}
	}
	if hits, misses := c.Stats(); misses != 1 || hits != n-1 {
		t.Fatalf("Stats = %d hits, %d misses, want %d, 1", hits, misses, n-1)
	}
}
