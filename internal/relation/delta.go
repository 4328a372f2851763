package relation

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"ptx/internal/value"
)

// DeltaOp is one tuple-level mutation against a named relation.
type DeltaOp struct {
	Insert bool // true = insert the tuple, false = delete it
	Rel    string
	Tuple  value.Tuple
}

// String renders the op as +rel(a,b) or -rel(a,b).
func (op DeltaOp) String() string {
	sign := "-"
	if op.Insert {
		sign = "+"
	}
	parts := make([]string, len(op.Tuple))
	for i, v := range op.Tuple {
		parts[i] = string(v)
	}
	return sign + op.Rel + "(" + strings.Join(parts, ",") + ")"
}

// Delta is an ordered batch of tuple mutations applied atomically to an
// Instance. Ops apply in sequence, so a delta may insert and then delete
// the same tuple; the effective delta returned by Instance.Apply records
// which ops actually changed the store.
type Delta struct {
	Ops []DeltaOp
}

func tupleOf(vals []string) value.Tuple {
	t := make(value.Tuple, len(vals))
	for i, s := range vals {
		t[i] = value.V(s)
	}
	return t
}

// Insert appends an insertion of rel(vals...).
func (d *Delta) Insert(rel string, vals ...string) *Delta {
	d.Ops = append(d.Ops, DeltaOp{Insert: true, Rel: rel, Tuple: tupleOf(vals)})
	return d
}

// Delete appends a deletion of rel(vals...).
func (d *Delta) Delete(rel string, vals ...string) *Delta {
	d.Ops = append(d.Ops, DeltaOp{Insert: false, Rel: rel, Tuple: tupleOf(vals)})
	return d
}

// InsertTuple appends an insertion of t into rel.
func (d *Delta) InsertTuple(rel string, t value.Tuple) *Delta {
	d.Ops = append(d.Ops, DeltaOp{Insert: true, Rel: rel, Tuple: t.Clone()})
	return d
}

// DeleteTuple appends a deletion of t from rel.
func (d *Delta) DeleteTuple(rel string, t value.Tuple) *Delta {
	d.Ops = append(d.Ops, DeltaOp{Insert: false, Rel: rel, Tuple: t.Clone()})
	return d
}

// Len returns the number of ops.
func (d *Delta) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Ops)
}

// Empty reports whether the delta carries no ops.
func (d *Delta) Empty() bool { return d.Len() == 0 }

// Rels returns the sorted distinct relation names the delta touches.
func (d *Delta) Rels() []string {
	if d == nil {
		return nil
	}
	seen := make(map[string]bool, len(d.Ops))
	for _, op := range d.Ops {
		seen[op.Rel] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks every op against the schema: the relation must be
// declared and the tuple must match its arity. It reports the first
// violation so mutations fail before any op is applied.
func (d *Delta) Validate(s *Schema) error {
	if d == nil {
		return nil
	}
	for i, op := range d.Ops {
		a, ok := s.Arity(op.Rel)
		if !ok {
			return fmt.Errorf("delta: op %d: relation %q not in schema", i, op.Rel)
		}
		if len(op.Tuple) != a {
			return fmt.Errorf("delta: op %d: %s has arity %d, schema says %d for %q",
				i, op, len(op.Tuple), a, op.Rel)
		}
	}
	return nil
}

// String renders the delta as a space-joined op list.
func (d *Delta) String() string {
	if d.Empty() {
		return "(empty delta)"
	}
	parts := make([]string, len(d.Ops))
	for i, op := range d.Ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// Insert adds t to the relation and reports whether the relation changed
// (false when the tuple was already present). On a sealed relation it
// first builds the hash set from the sorted slice. A change invalidates
// the cached fingerprint, sorted order, active domain, columnar layout
// and grouping — so a post-mutation Key() or Sorted() never reuses a
// stale rendering — and incrementally maintains every built secondary
// index.
func (r *Relation) Insert(t value.Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: arity mismatch: tuple %v into arity-%d relation", t, r.arity))
	}
	set := r.set()
	k := t.Key()
	if _, ok := set[k]; ok {
		return false
	}
	c := t.Clone()
	set[k] = c
	r.indexInsert(c)
	r.touch()
	return true
}

// Delete removes t from the relation and reports whether it was present.
func (r *Relation) Delete(t value.Tuple) bool {
	set := r.set()
	k := t.Key()
	old, ok := set[k]
	if !ok {
		return false
	}
	delete(set, k)
	r.indexDelete(old)
	r.touch()
	return true
}

// Version returns the instance's mutation counter. Every effective
// mutation (Apply with at least one effective op, Add, SetRel) bumps it;
// caches keyed by database contents (eval.Memo via BindInstance) compare
// versions to make stale hits after a mutation impossible.
func (i *Instance) Version() uint64 { return i.version.Load() }

// Apply validates d against the schema and applies its ops in order,
// returning the EFFECTIVE delta: the subsequence of ops that actually
// changed the store (inserting a present tuple or deleting an absent one
// is a no-op). The version is bumped once iff the effective delta is
// non-empty. On a validation error nothing is applied.
func (i *Instance) Apply(d *Delta) (*Delta, error) {
	if err := d.Validate(i.schema); err != nil {
		return nil, err
	}
	eff := &Delta{}
	if d == nil {
		return eff, nil
	}
	for _, op := range d.Ops {
		r := i.Rel(op.Rel)
		var changed bool
		if op.Insert {
			changed = r.Insert(op.Tuple)
		} else {
			changed = r.Delete(op.Tuple)
		}
		if changed {
			eff.Ops = append(eff.Ops, op)
		}
	}
	if !eff.Empty() {
		i.version.Add(1)
	}
	return eff, nil
}

// Derive returns the instance d moves i to and the effective delta, as
// Apply would, without mutating i: relations d does not touch are shared
// with i by pointer, and touched ones are cloned before the ops apply.
// On a validation error it returns nil and the error.
func (i *Instance) Derive(d *Delta) (*Instance, *Delta, error) {
	if err := d.Validate(i.schema); err != nil {
		return nil, nil, err
	}
	next := &Instance{schema: i.schema, rels: maps.Clone(i.rels)}
	for _, n := range d.Rels() {
		next.rels[n] = i.Rel(n).Clone()
	}
	next.version.Store(i.version.Load())
	eff, err := next.Apply(d)
	return next, eff, err
}
