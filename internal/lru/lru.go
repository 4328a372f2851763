// Package lru provides the small bounded LRU cache behind
// the rule-query memo of internal/eval. Bounding by entry count keeps cache
// memory proportional to the number of distinct configurations a run
// visits, never to the (possibly doubly-exponential) size of the tree
// being generated. Nothing is preallocated: the map grows with the
// entries actually stored, so a large capacity is only a bound.
//
// A Cache is NOT safe for concurrent use; callers that share one across
// goroutines wrap it in their own mutex (eval.Memo does).
package lru

// Cache is a fixed-capacity map from K to V with least-recently-used
// eviction.
type Cache[K comparable, V any] struct {
	capacity int
	onEvict  func(key K, v V)
	entries  map[K]*entry[K, V]
	// Intrusive doubly-linked recency list; head is most recent.
	head, tail *entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns a cache holding at most capacity entries; capacity must be
// positive. onEvict, if non-nil, observes each evicted entry (it is not
// called for Put-updates of an existing key).
func New[K comparable, V any](capacity int, onEvict func(key K, v V)) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Cache[K, V]{
		capacity: capacity,
		onEvict:  onEvict,
		entries:  make(map[K]*entry[K, V]),
	}
}

// Len returns the number of entries currently cached.
func (c *Cache[K, V]) Len() int { return len(c.entries) }

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	e, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Put inserts or updates key, marking it most recently used, and evicts
// the least recently used entry if the cache is over capacity.
func (c *Cache[K, V]) Put(key K, v V) {
	if e, ok := c.entries[key]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: key, val: v}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		if c.onEvict != nil {
			c.onEvict(lru.key, lru.val)
		}
	}
}

// RemoveIf removes every entry whose key satisfies pred and returns how
// many were removed. onEvict is NOT called: removal is invalidation by
// the owner, not capacity pressure.
func (c *Cache[K, V]) RemoveIf(pred func(key K) bool) int {
	n := 0
	for k, e := range c.entries {
		if !pred(k) {
			continue
		}
		c.unlink(e)
		delete(c.entries, k)
		n++
	}
	return n
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
