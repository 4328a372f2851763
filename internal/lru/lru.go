// Package lru provides the small string-keyed bounded LRU cache behind
// the rule-query memo of internal/eval. Bounding by entry count keeps cache
// memory proportional to the number of distinct configurations a run
// visits, never to the (possibly doubly-exponential) size of the tree
// being generated. Nothing is preallocated: the map grows with the
// entries actually stored, so a large capacity is only a bound.
//
// A Cache is NOT safe for concurrent use; callers that share one across
// goroutines wrap it in their own mutex (eval.Memo does).
package lru

// Cache is a fixed-capacity map with least-recently-used eviction.
type Cache[V any] struct {
	capacity int
	onEvict  func(key string, v V)
	entries  map[string]*entry[V]
	// Intrusive doubly-linked recency list; head is most recent.
	head, tail *entry[V]
}

type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// New returns a cache holding at most capacity entries; capacity must be
// positive. onEvict, if non-nil, observes each evicted entry (it is not
// called for Put-updates of an existing key).
func New[V any](capacity int, onEvict func(key string, v V)) *Cache[V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Cache[V]{
		capacity: capacity,
		onEvict:  onEvict,
		entries:  make(map[string]*entry[V]),
	}
}

// Len returns the number of entries currently cached.
func (c *Cache[V]) Len() int { return len(c.entries) }

// Get returns the value for key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
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
func (c *Cache[V]) Put(key string, v V) {
	if e, ok := c.entries[key]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	e := &entry[V]{key: key, val: v}
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
func (c *Cache[V]) RemoveIf(pred func(key string) bool) int {
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

func (c *Cache[V]) pushFront(e *entry[V]) {
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

func (c *Cache[V]) unlink(e *entry[V]) {
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

func (c *Cache[V]) moveToFront(e *entry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
