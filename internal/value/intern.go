package value

// Interner maps values to dense uint32 ids for one evaluation's
// lifetime. The compiled-plan executor keys its hash joins and
// deduplication sets on packed id tuples instead of length-prefixed
// string renderings: a k-column join key becomes 4k fixed bytes built
// with no per-value length formatting, and repeated values (the common
// case — join attributes draw from small domains) hash the same 4
// bytes every time.
//
// An Interner is single-goroutine by design: plan executions each own
// one, so there is no lock and no cross-request contention or
// unbounded global growth. The zero value is not ready; use
// NewInterner.
type Interner struct {
	ids  map[V]uint32
	vals []V
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[V]uint32)}
}

// ID returns the dense id of v, assigning the next free id on first
// sight. Ids are assigned in first-encounter order and are NOT
// canonical across interners — they are valid only for keys that never
// leave this interner's lifetime.
func (in *Interner) ID(v V) uint32 {
	if id, ok := in.ids[v]; ok {
		return id
	}
	id := uint32(len(in.vals))
	in.ids[v] = id
	in.vals = append(in.vals, v)
	return id
}

// Val returns the value with the given id; it panics on ids the
// interner never issued.
func (in *Interner) Val(id uint32) V { return in.vals[id] }

// Len returns the number of distinct values interned so far.
func (in *Interner) Len() int { return len(in.vals) }

// AppendID appends the 4-byte big-endian encoding of v's id to dst.
func (in *Interner) AppendID(dst []byte, v V) []byte {
	id := in.ID(v)
	return append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

// AppendTupleID appends the packed id encoding of t to dst. Within one
// interner the encoding is injective for a fixed arity: equal tuples
// produce equal bytes and distinct tuples distinct bytes.
func (in *Interner) AppendTupleID(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = in.AppendID(dst, v)
	}
	return dst
}
