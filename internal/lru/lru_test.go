package lru

import "testing"

func TestGetPutEvictOrder(t *testing.T) {
	var evicted []string
	c := New[string, int](3, func(k string, v int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// Touch a so b becomes least recently used.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	c.Put("d", 4)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should be gone")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should survive", k)
		}
	}
}

func TestPutUpdateDoesNotEvict(t *testing.T) {
	evictions := 0
	c := New[string, int](2, func(string, int) { evictions++ })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // update, not insert
	if evictions != 0 {
		t.Fatalf("update evicted %d entries", evictions)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("a = %d, want 10", v)
	}
	// b is now LRU; one more insert evicts it.
	c.Put("c", 3)
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestCapacityOne(t *testing.T) {
	c := New[string, string](1, nil)
	for i, k := range []string{"x", "y", "z"} {
		c.Put(k, k)
		if c.Len() != 1 {
			t.Fatalf("step %d: len = %d", i, c.Len())
		}
	}
	if _, ok := c.Get("y"); ok {
		t.Error("only the last key should remain")
	}
	if v, ok := c.Get("z"); !ok || v != "z" {
		t.Errorf("Get(z) = %q,%v", v, ok)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 should panic")
		}
	}()
	New[string, int](0, nil)
}

func TestRemoveIf(t *testing.T) {
	evicted := 0
	c := New[string, int](8, func(string, int) { evicted++ })
	for _, k := range []string{"1|a", "1|b", "2|a", "3|c"} {
		c.Put(k, 1)
	}
	if n := c.RemoveIf(func(k string) bool { return k[0] == '1' }); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if evicted != 0 {
		t.Fatal("RemoveIf must not invoke onEvict")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("1|a"); ok {
		t.Fatal("removed key still present")
	}
	// The recency list must stay consistent: fill past capacity and
	// confirm eviction still works from the tail.
	for i := 0; i < 10; i++ {
		c.Put(string(rune('a'+i)), i)
	}
	if c.Len() != 8 {
		t.Fatalf("len = %d, want capacity 8", c.Len())
	}
	if n := c.RemoveIf(func(string) bool { return true }); n != 8 {
		t.Fatalf("drain removed %d, want 8", n)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after full RemoveIf")
	}
	c.Put("fresh", 1)
	if v, ok := c.Get("fresh"); !ok || v != 1 {
		t.Fatal("cache unusable after full RemoveIf")
	}
}

// TestNewDoesNotPreallocate: capacity is a bound, not a reservation —
// a fresh cache with a 64k bound must cost a few hundred bytes, not a
// 64k-slot map.
func TestNewDoesNotPreallocate(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New[string, int](1<<16, nil)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Errorf("New(1<<16) allocates %d B, want < 4 KiB", got)
	}
}
