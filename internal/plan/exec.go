package plan

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/value"
)

// exec is the transient state of one plan evaluation: the environment,
// the active domain, the overlay of fixpoint stage relations shadowing
// the environment, and the scratch the operators carve their binding
// sets, rows, column lists and hash indexes from. The domain and the
// overlay are built on first use: a typical rule query (a register
// joined with base relations by index probes) needs neither.
//
// The scratch is pooled. Plan.Eval takes an exec from execPool and
// hands it back reset, so an evaluation in steady state allocates only
// its result. The reuse rests on two invariants:
//
//   - Nothing carved from the scratch escapes its evaluation.
//     Plan.Eval copies the result rows into a fresh slab before it
//     returns, and nFixpoint's stage.Insert clones every row the stage
//     keeps, so no binding set, row or index outlives the Eval (or the
//     fixpoint iteration) that carved it.
//   - An exec serves one evaluation at a time: the pool hands each Eval
//     its own, so a Plan stays immutable and safe for concurrent Eval,
//     and no two evaluations ever share scratch.
type exec struct {
	env     Env
	ctl     *runctl.Controller
	consts  []value.V
	adom    []value.V
	overlay map[string]*relation.Relation

	vals  arena[value.V]   // row cells
	vars  arena[logic.Var] // variable orders decided at run time
	ints  arena[int]       // column lists and odometer digits
	ops   arena[operand]   // nConj operands
	flags arena[bool]      // nConj's applied and used marks
	sets  []*bset          // binding sets, handed out in order
	nsets int              // sets in use
	build hindex           // the hash join's build side
}

var execPool = sync.Pool{New: func() any { return new(exec) }}

// keepScratch caps, in elements, each buffer an exec keeps when it goes
// back to the pool; a larger one, grown by an unusually big evaluation,
// is dropped so the pool does not pin it.
const keepScratch = 1 << 12

func newExec(env Env, ctl *runctl.Controller, consts []value.V) *exec {
	x := execPool.Get().(*exec)
	x.env, x.ctl, x.consts = env, ctl, consts
	return x
}

// release resets x and returns it to the pool. Every buffer is cleared
// up to its used length, so a pooled exec pins no rows or relations.
func (x *exec) release() {
	x.env, x.ctl, x.consts, x.adom = nil, nil, nil, nil
	clear(x.overlay)
	x.vals.reset()
	x.vars.reset()
	x.ints.reset()
	x.ops.reset()
	x.flags.reset()
	for _, b := range x.sets {
		b.reset(nil)
	}
	x.nsets = 0
	x.build.reset()
	execPool.Put(x)
}

// arena hands out slices carved from one growing buffer. A full buffer
// is replaced by a fresh one of twice the capacity, not copied: slices
// already carved keep the old array alive for as long as they are used.
type arena[T any] []T

// take returns n elements, not necessarily zeroed, with capacity n.
func (a *arena[T]) take(n int) []T {
	b := *a
	if len(b)+n > cap(b) {
		b = make([]T, 0, max(2*cap(b), n, 64))
	}
	s := len(b)
	*a = b[:s+n]
	return b[s : s+n : s+n]
}

// spot is an arena position: the length in use and the capacity that
// identifies the buffer.
type spot struct{ n, cap int }

func (a *arena[T]) spot() spot { return spot{len(*a), cap(*a)} }

// rewind releases what was taken since p, unless the arena has moved
// to a new buffer since (the old one then simply goes unused).
func (a *arena[T]) rewind(p spot) {
	if cap(*a) == p.cap {
		clear((*a)[p.n:])
		*a = (*a)[:p.n]
	}
}

func (a *arena[T]) reset() {
	clear(*a)
	*a = (*a)[:0]
	if cap(*a) > keepScratch {
		*a = nil
	}
}

// mark is a position of the whole scratch; rewinding to it releases
// every set and slice handed out since.
type mark struct {
	nsets                        int
	vals, vars, ints, ops, flags spot
}

func (x *exec) mark() mark {
	return mark{x.nsets, x.vals.spot(), x.vars.spot(), x.ints.spot(), x.ops.spot(), x.flags.spot()}
}

func (x *exec) rewind(m mark) {
	x.nsets = m.nsets
	x.vals.rewind(m.vals)
	x.vars.rewind(m.vars)
	x.ints.rewind(m.ints)
	x.ops.rewind(m.ops)
	x.flags.rewind(m.flags)
}

// row returns a row of width w carved from the scratch.
func (x *exec) row(w int) value.Tuple { return x.vals.take(w) }

// cols returns an empty column list with room for n columns.
func (x *exec) cols(n int) []int { return x.ints.take(n)[:0] }

// set hands out an empty binding set over vars.
func (x *exec) set(vars []logic.Var) *bset {
	if x.nsets == len(x.sets) {
		x.sets = append(x.sets, new(bset))
	}
	b := x.sets[x.nsets]
	x.nsets++
	b.reset(vars)
	return b
}

func (x *exec) lookup(name string) (*relation.Relation, bool) {
	if r, ok := x.overlay[name]; ok {
		return r, true
	}
	return x.env.Lookup(name)
}

// domain returns the active domain extended with the query's
// constants. Only expand, complement and a vacuous ∃ read it.
func (x *exec) domain() []value.V {
	if x.adom == nil {
		x.adom = x.env.Domain(x.consts)
	}
	return x.adom
}

// hindex is a hash index over a list of rows: rows whose key columns
// hash alike are chained, newest first, and a lookup walks the chain
// comparing the key columns, so a collision costs a comparison, never
// a wrong answer. Its map is cleared, not remade, between uses.
type hindex struct {
	head map[uint64]int32 // hash → 1 + the newest row entered under it
	next []int32          // row i → 1 + the previous row under its hash; 0 ends
}

func (h *hindex) reset() {
	if len(h.head) > keepScratch {
		h.head = nil
	}
	if h.head == nil {
		h.head = make(map[uint64]int32)
	}
	clear(h.head)
	h.next = h.next[:0]
	if cap(h.next) > keepScratch {
		h.next = nil
	}
}

// add enters the next row (rows are entered in order 0, 1, …) under
// hash k.
func (h *hindex) add(k uint64) {
	h.next = append(h.next, h.head[k])
	h.head[k] = int32(len(h.next))
}

var hashSeed = maphash.MakeSeed()

const hashInit = 0xcbf29ce484222325

func mix(h uint64, v value.V) uint64 {
	return (h ^ maphash.String(hashSeed, string(v))) * 0x100000001b3
}

func hashRow(t value.Tuple) uint64 {
	h := uint64(hashInit)
	for _, v := range t {
		h = mix(h, v)
	}
	return h
}

// hashCols hashes t's values at cols.
func hashCols(t value.Tuple, cols []int) uint64 {
	h := uint64(hashInit)
	for _, c := range cols {
		h = mix(h, t[c])
	}
	return h
}

func sameRow(a, b value.Tuple) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bset is a set of assignments over a fixed variable order. Rows are
// owned by the set once added and never mutated afterwards, so derived
// sets may share them. Scans, joins, probes, filters, expansions and
// complements produce distinct rows by construction and append them
// directly; idx, the dedup index over the rows, is built only where
// duplicates can arise (add, in project and union) or where rows are
// looked up (has, for complements and ¬ probes).
type bset struct {
	vars    []logic.Var
	rows    []value.Tuple
	idx     hindex
	indexed bool
}

func (b *bset) reset(vars []logic.Var) {
	clear(b.rows)
	b.vars, b.rows, b.indexed = vars, b.rows[:0], false
	if cap(b.rows) > keepScratch {
		b.rows = nil
	}
	if len(b.idx.head) > keepScratch {
		b.idx = hindex{}
	}
}

func (b *bset) index() {
	b.idx.reset()
	for _, r := range b.rows {
		b.idx.add(hashRow(r))
	}
	b.indexed = true
}

// find reports whether a row equal to t, hashed to h, is in b.
func (b *bset) find(t value.Tuple, h uint64) bool {
	for i := b.idx.head[h]; i != 0; i = b.idx.next[i-1] {
		if sameRow(b.rows[i-1], t) {
			return true
		}
	}
	return false
}

// add appends t unless an equal row is already present.
func (b *bset) add(t value.Tuple) {
	if !b.indexed {
		b.index()
	}
	h := hashRow(t)
	if b.find(t, h) {
		return
	}
	b.idx.add(h)
	b.rows = append(b.rows, t)
}

// has reports whether t is a row of b.
func (b *bset) has(t value.Tuple) bool {
	if !b.indexed {
		b.index()
	}
	return b.find(t, hashRow(t))
}

func (x *exec) unit() *bset {
	b := x.set(nil)
	b.rows = append(b.rows, value.Tuple{})
	return b
}

// joinVars is the output variable order of a join: l's variables
// followed by r's new ones.
func (x *exec) joinVars(l, r []logic.Var) []logic.Var {
	out := x.vars.take(len(l) + len(r))[:0]
	out = append(out, l...)
	for _, v := range r {
		if varPos(l, v) < 0 {
			out = append(out, v)
		}
	}
	return out
}

// varPos is v's column in vs, or -1. Binding sets carry a handful of
// variables, so a linear search beats building an index map per call.
func varPos(vs []logic.Var, v logic.Var) int {
	for i, w := range vs {
		if w == v {
			return i
		}
	}
	return -1
}

// join hash-joins two binding sets on their shared variables; output
// variables are l's followed by r's new ones. Rows of l and r are
// distinct, so the joined rows are too.
func (x *exec) join(l, r *bset) (*bset, error) {
	sharedL, sharedR, rOnly := x.cols(len(r.vars)), x.cols(len(r.vars)), x.cols(len(r.vars))
	for i, v := range r.vars {
		if li := varPos(l.vars, v); li >= 0 {
			sharedL = append(sharedL, li)
			sharedR = append(sharedR, i)
		} else {
			rOnly = append(rOnly, i)
		}
	}
	out := x.set(x.joinVars(l.vars, r.vars))
	w := len(out.vars)
	x.build.reset()
	for _, rt := range r.rows {
		x.build.add(hashCols(rt, sharedR))
	}
	for _, lt := range l.rows {
		if err := x.ctl.Tick(); err != nil {
			return nil, err
		}
	chain:
		for i := x.build.head[hashCols(lt, sharedL)]; i != 0; i = x.build.next[i-1] {
			rt := r.rows[i-1]
			for j, c := range sharedR {
				if rt[c] != lt[sharedL[j]] {
					continue chain
				}
			}
			row := x.row(w)
			n := copy(row, lt)
			for j, c := range rOnly {
				row[n+j] = rt[c]
			}
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// odometer steps digits, each in [0, n), to the next combination, the
// last digit fastest, and reports false after the last one.
func odometer(digits []int, n int) bool {
	for i := len(digits) - 1; i >= 0; i-- {
		if digits[i]++; digits[i] < n {
			return true
		}
		digits[i] = 0
	}
	return false
}

// expand extends every row with all assignments of the missing
// variables over the active domain (adom^|missing| per row).
func (x *exec) expand(b *bset, missing []logic.Var) (*bset, error) {
	if len(missing) == 0 {
		return b, nil
	}
	outVars := x.vars.take(len(b.vars) + len(missing))
	copy(outVars[copy(outVars, b.vars):], missing)
	out := x.set(outVars)
	adom := x.domain()
	if len(adom) == 0 {
		return out, nil
	}
	base := len(b.vars)
	digits := x.ints.take(len(missing))
	for _, t := range b.rows {
		clear(digits)
		for more := true; more; more = odometer(digits, len(adom)) {
			if err := x.ctl.Tick(); err != nil {
				return nil, err
			}
			row := x.row(len(outVars))
			copy(row, t)
			for i, d := range digits {
				row[base+i] = adom[d]
			}
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// complement returns adom^k minus b, over the same variables.
func (x *exec) complement(b *bset) (*bset, error) {
	out := x.set(b.vars)
	adom := x.domain()
	k := len(b.vars)
	if k > 0 && len(adom) == 0 {
		return out, nil
	}
	digits := x.ints.take(k)
	clear(digits)
	cand := x.row(k)
	for more := true; more; more = odometer(digits, len(adom)) {
		if err := x.ctl.Tick(); err != nil {
			return nil, err
		}
		for i, d := range digits {
			cand[i] = adom[d]
		}
		if !b.has(cand) {
			row := x.row(k)
			copy(row, cand)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// project restricts/reorders b to out via the given columns. Only a
// projection that drops columns can merge rows; a reordering keeps
// them distinct and skips the dedup set, and so does a projection whose
// rows go straight to Plan.Eval's sort (keepDups).
func (x *exec) project(b *bset, cols []int, out []logic.Var, keepDups bool) *bset {
	nb := x.set(out)
	dedup := !keepDups && len(cols) < len(b.vars)
	for _, t := range b.rows {
		row := x.row(len(cols))
		for i, c := range cols {
			row[i] = t[c]
		}
		if dedup {
			nb.add(row)
		} else {
			nb.rows = append(nb.rows, row)
		}
	}
	return nb
}

// ---------------------------------------------------------------- nUnit

// nUnit is ⊤: the single empty assignment.
type nUnit struct{}

func (*nUnit) vars() []logic.Var { return nil }

func (*nUnit) exec(x *exec) (*bset, error) { return x.unit(), nil }

func (*nUnit) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	sb.WriteString("unit\n")
}

// nEmpty is ⊥: no assignments.
type nEmpty struct{}

func (*nEmpty) vars() []logic.Var { return nil }

func (*nEmpty) exec(x *exec) (*bset, error) { return x.set(nil), nil }

func (*nEmpty) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	sb.WriteString("empty\n")
}

// ---------------------------------------------------------------- nScan

type constCheck struct {
	pos int
	v   value.V
}

// nScan reads one relation atom. Variable layout (first occurrences,
// duplicate positions, constant checks) is resolved at compile time;
// when the atom carries a constant, the scan goes through the
// relation's secondary column index instead of the full extent, unless
// the relation is small (see probeTuples). Inside
// a conjunction a scan may instead be joined by index probes (see
// nConj), which reuse the same layout.
type nScan struct {
	rel      string
	atom     *logic.Atom
	out      []logic.Var // distinct variables, first-occurrence order
	varFirst []int       // out[i]'s column in the relation
	dups     [][2]int    // (pos, firstPos) pairs that must agree
	consts   []constCheck
	constCol int // column driving the index lookup, -1 if none
	constVal value.V
	// whole marks an atom of distinct variables only: each tuple is its
	// own assignment and is shared with the relation, not copied.
	whole bool
}

func (n *nScan) vars() []logic.Var { return n.out }

func (n *nScan) exec(x *exec) (*bset, error) {
	rel, err := n.resolve(x)
	if err != nil {
		return nil, err
	}
	return n.scan(x, rel)
}

// resolve looks the atom's relation up and checks its arity.
func (n *nScan) resolve(x *exec) (*relation.Relation, error) {
	return n.check(x.lookup(n.rel))
}

// check reports a failed lookup or an arity mismatch.
func (n *nScan) check(rel *relation.Relation, ok bool) (*relation.Relation, error) {
	if !ok {
		return nil, fmt.Errorf("eval: unknown relation %q in atom %s", n.rel, n.atom)
	}
	if rel.Arity() != len(n.atom.Args) {
		return nil, fmt.Errorf("eval: atom %s has %d args but relation %q has arity %d",
			n.atom, len(n.atom.Args), n.rel, rel.Arity())
	}
	return rel, nil
}

// candidates is what a scan of rel examines: the constant's index
// bucket (see probeTuples), or the whole extent. matches checks every
// constant either way.
func (n *nScan) candidates(rel *relation.Relation) []value.Tuple {
	if n.constCol >= 0 {
		return probeTuples(rel, n.constCol, n.constVal)
	}
	return rel.Sorted()
}

// extent is the number of tuples a scan of rel would examine, the
// size the join order and the probe-or-scan choice compare.
func (n *nScan) extent(rel *relation.Relation) int {
	if n.constCol >= 0 {
		return len(n.candidates(rel))
	}
	return rel.Len()
}

// matches checks a tuple against the atom's constants and repeated
// variables.
func (n *nScan) matches(t value.Tuple) bool {
	for _, c := range n.consts {
		if t[c.pos] != c.v {
			return false
		}
	}
	for _, dp := range n.dups {
		if t[dp[0]] != t[dp[1]] {
			return false
		}
	}
	return true
}

func (n *nScan) scan(x *exec, rel *relation.Relation) (*bset, error) {
	out := x.set(n.out)
	for _, t := range n.candidates(rel) {
		if err := x.ctl.Tick(); err != nil {
			return nil, err
		}
		if !n.matches(t) {
			continue
		}
		if n.whole {
			out.rows = append(out.rows, t)
			continue
		}
		asg := x.row(len(n.out))
		for i, p := range n.varFirst {
			asg[i] = t[p]
		}
		out.rows = append(out.rows, asg)
	}
	return out, nil
}

// probe joins cur with the atom by index lookups: for each row of cur
// it fetches the tuples of rel whose column col equals the row's value
// at from (see probeTuples), then checks the constants, the repeated
// variables and the other shared variables on each fetched tuple.
// Output variables are cur's followed by the atom's new ones.
func (n *nScan) probe(x *exec, cur *bset, rel *relation.Relation, col, from int) (*bset, error) {
	// checks holds (relation column, cur column) pairs of the shared
	// variables, col included: probeTuples may return a whole relation.
	checks, newCols := x.cols(2*len(n.out)), x.cols(len(n.out))
	for i, v := range n.out {
		c := n.varFirst[i]
		if ci := varPos(cur.vars, v); ci < 0 {
			newCols = append(newCols, c)
		} else {
			checks = append(checks, c, ci)
		}
	}
	out := x.set(x.joinVars(cur.vars, n.out))
	w := len(out.vars)
	for _, lt := range cur.rows {
	tuples:
		for _, t := range probeTuples(rel, col, lt[from]) {
			if err := x.ctl.Tick(); err != nil {
				return nil, err
			}
			if !n.matches(t) {
				continue
			}
			for i := 0; i < len(checks); i += 2 {
				if t[checks[i]] != lt[checks[i+1]] {
					continue tuples
				}
			}
			row := x.row(w)
			k := copy(row, lt)
			for i, c := range newCols {
				row[k+i] = t[c]
			}
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func (n *nScan) explain(sb *strings.Builder, d int) { n.explainAs(sb, d, "index", n.constCol) }

// explainAs renders the scan, noting how it reads column col, if any.
func (n *nScan) explainAs(sb *strings.Builder, d int, how string, col int) {
	indent(sb, d)
	fmt.Fprintf(sb, "scan %s -> %s", n.atom, varList(n.out))
	if col >= 0 {
		fmt.Fprintf(sb, " [%s col %d]", how, col)
	}
	sb.WriteString("\n")
}

// ---------------------------------------------------------------- nConj

type fKind int

const (
	fEq fKind = iota
	fNeq
	fNot
)

// filter is an (in)equality or negation conjunct, applied to the bound
// prefix as soon as its free variables are covered.
type filter struct {
	kind  fKind
	l, r  logic.Term // fEq/fNeq
	sub   node       // fNot: the negated operator (anti-join probe)
	frees []logic.Var
}

func (f *filter) String() string {
	switch f.kind {
	case fEq:
		return f.l.String() + "=" + f.r.String()
	case fNeq:
		return f.l.String() + "!=" + f.r.String()
	}
	return "not" + varList(f.frees)
}

// nConj joins its positive conjuncts greedily by cardinality (smallest
// first, preferring joinable pairs over cross products) and applies
// filters on bound prefixes the moment they are covered. Atom
// conjuncts are not scanned up front: each is sized by its extent, and
// when the join order reaches one that shares a variable with a bound
// prefix smaller than that extent, it is joined by probing the
// relation's column index once per prefix row; otherwise it is scanned
// and hash-joined. Filters still uncovered after all joins bind (for =)
// or expand over the active domain (for ≠/¬) only the variables they
// mention.
type nConj struct {
	out       []logic.Var
	positives []node
	filters   []*filter
}

func (n *nConj) vars() []logic.Var { return n.out }

// operand is a positive conjunct during execution: a materialized
// binding set, or an atom whose scan is deferred until the join order
// reaches it.
type operand struct {
	set  *bset
	scan *nScan
	rel  *relation.Relation
	size int // rows of set, or the scan's extent
}

func (o *operand) vars() []logic.Var {
	if o.set != nil {
		return o.set.vars
	}
	return o.scan.out
}

// materialize runs a deferred scan.
func (o *operand) materialize(x *exec) (*bset, error) {
	if o.set != nil {
		return o.set, nil
	}
	return o.scan.scan(x, o.rel)
}

// joinOperand joins cur with op: by index probes when op is a deferred
// scan sharing a variable with cur and cur has fewer rows than the scan
// would read, by scanning op and hash-joining otherwise.
func (x *exec) joinOperand(cur *bset, op *operand) (*bset, error) {
	if len(cur.rows) == 0 {
		return x.set(x.joinVars(cur.vars, op.vars())), nil
	}
	if op.scan != nil && len(cur.rows) < op.size {
		for i, v := range op.scan.out {
			if from := varPos(cur.vars, v); from >= 0 {
				return op.scan.probe(x, cur, op.rel, op.scan.varFirst[i], from)
			}
		}
	}
	r, err := op.materialize(x)
	if err != nil {
		return nil, err
	}
	return x.join(cur, r)
}

func (n *nConj) exec(x *exec) (*bset, error) {
	ops := x.ops.take(len(n.positives))
	for i, p := range n.positives {
		if s, ok := p.(*nScan); ok {
			rel, err := s.resolve(x)
			if err != nil {
				return nil, err
			}
			ops[i] = operand{scan: s, rel: rel, size: s.extent(rel)}
			continue
		}
		b, err := p.exec(x)
		if err != nil {
			return nil, err
		}
		ops[i] = operand{set: b, size: len(b.rows)}
	}
	applied := x.flags.take(len(n.filters))
	clear(applied)
	covered := func(cur *bset, f *filter) bool {
		for _, v := range f.frees {
			if varPos(cur.vars, v) < 0 {
				return false
			}
		}
		return true
	}
	applyCovered := func(cur *bset) (*bset, error) {
		for progress := true; progress; {
			progress = false
			for i, f := range n.filters {
				if applied[i] || !covered(cur, f) {
					continue
				}
				nb, err := x.applyFilter(cur, f)
				if err != nil {
					return nil, err
				}
				cur = nb
				applied[i] = true
				progress = true
			}
		}
		return cur, nil
	}

	var cur *bset
	var err error
	used := x.flags.take(len(ops))
	clear(used)
	remaining := len(ops)
	if remaining == 0 {
		cur = x.unit()
	} else {
		best := 0
		for i := 1; i < len(ops); i++ {
			if ops[i].size < ops[best].size {
				best = i
			}
		}
		if cur, err = ops[best].materialize(x); err != nil {
			return nil, err
		}
		used[best] = true
		remaining--
	}
	if cur, err = applyCovered(cur); err != nil {
		return nil, err
	}
	for ; remaining > 0; remaining-- {
		best, bestShares := -1, false
		for i := range ops {
			if used[i] {
				continue
			}
			shares := false
			for _, v := range ops[i].vars() {
				if varPos(cur.vars, v) >= 0 {
					shares = true
					break
				}
			}
			if best < 0 || (shares && !bestShares) ||
				(shares == bestShares && ops[i].size < ops[best].size) {
				best, bestShares = i, shares
			}
		}
		used[best] = true
		if cur, err = x.joinOperand(cur, &ops[best]); err != nil {
			return nil, err
		}
		if cur, err = applyCovered(cur); err != nil {
			return nil, err
		}
	}
	// Filters over variables no positive conjunct binds: an equality
	// binds its unbound side directly; ≠ and ¬ expand just the missing
	// variables over the active domain and then filter.
	for i, f := range n.filters {
		if applied[i] {
			continue
		}
		if f.kind == fEq {
			if cur, err = x.coverEq(cur, f); err != nil {
				return nil, err
			}
		} else {
			miss := varsMissing(f.frees, cur.vars)
			if cur, err = x.expand(cur, miss); err != nil {
				return nil, err
			}
			if cur, err = x.applyFilter(cur, f); err != nil {
				return nil, err
			}
		}
		applied[i] = true
	}
	if varsEqual(cur.vars, n.out) {
		return cur, nil
	}
	proj := x.ints.take(len(n.out))
	for i, v := range n.out {
		// Every output variable is bound by now: a positive conjunct or
		// a filter binds each.
		proj[i] = varPos(cur.vars, v)
	}
	return x.project(cur, proj, n.out, false), nil
}

// termCol resolves a covered term against a binding set's variables:
// a variable's column, or -1 and a constant's value.
func termCol(t logic.Term, vars []logic.Var) (int, value.V) {
	switch u := t.(type) {
	case logic.Const:
		return -1, value.V(u)
	case logic.Var:
		return varPos(vars, u), ""
	}
	panic(fmt.Sprintf("plan: unknown term %T", t))
}

// applyFilter restricts cur by a covered filter.
func (x *exec) applyFilter(cur *bset, f *filter) (*bset, error) {
	switch f.kind {
	case fEq, fNeq:
		want := f.kind == fEq
		lc, lv := termCol(f.l, cur.vars)
		rc, rv := termCol(f.r, cur.vars)
		out := x.set(cur.vars)
		for _, row := range cur.rows {
			l, r := lv, rv
			if lc >= 0 {
				l = row[lc]
			}
			if rc >= 0 {
				r = row[rc]
			}
			if (l == r) == want {
				out.rows = append(out.rows, row)
			}
		}
		return out, nil
	case fNot:
		sub, err := f.sub.exec(x)
		if err != nil {
			return nil, err
		}
		if len(sub.vars) == 0 {
			// Sentence: ¬g drops everything when g holds.
			if len(sub.rows) == 0 {
				return cur, nil
			}
			return x.set(cur.vars), nil
		}
		cols := x.ints.take(len(sub.vars))
		for i, v := range sub.vars {
			cols[i] = varPos(cur.vars, v)
		}
		out := x.set(cur.vars)
		probe := x.row(len(cols))
		for _, row := range cur.rows {
			for i, c := range cols {
				probe[i] = row[c]
			}
			if !sub.has(probe) {
				out.rows = append(out.rows, row)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("plan: unknown filter kind %d", f.kind)
}

// coverEq makes an equality's terms bound — binding an unbound variable
// to the other side's value where possible, expanding over the active
// domain only for x=x or when both sides are unbound variables — and
// then applies the filter.
func (x *exec) coverEq(cur *bset, f *filter) (*bset, error) {
	for {
		isBound := func(t logic.Term) bool {
			v, isVar := t.(logic.Var)
			return !isVar || varPos(cur.vars, v) >= 0
		}
		lb, rb := isBound(f.l), isBound(f.r)
		if lb && rb {
			return x.applyFilter(cur, f)
		}
		if lb != rb {
			var uv logic.Var
			var src logic.Term
			if lb {
				uv, src = f.r.(logic.Var), f.l
			} else {
				uv, src = f.l.(logic.Var), f.r
			}
			outVars := x.vars.take(len(cur.vars) + 1)
			outVars[copy(outVars, cur.vars)] = uv
			out := x.set(outVars)
			sc, sv := termCol(src, cur.vars)
			for _, row := range cur.rows {
				v := sv
				if sc >= 0 {
					v = row[sc]
				}
				nr := x.row(len(row) + 1)
				nr[copy(nr, row)] = v
				out.rows = append(out.rows, nr)
			}
			cur = out
			continue
		}
		// Both sides are unbound variables (x=x or x=y): expand the left
		// over the active domain; the next round binds the right.
		var err error
		if cur, err = x.expand(cur, []logic.Var{f.l.(logic.Var)}); err != nil {
			return nil, err
		}
	}
}

func (n *nConj) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	fmt.Fprintf(sb, "conj -> %s", varList(n.out))
	writeFilters(sb, n.filters)
	sb.WriteString("\n")
	for _, p := range n.positives {
		p.explain(sb, d+1)
	}
	for _, f := range n.filters {
		if f.sub != nil {
			f.sub.explain(sb, d+1)
		}
	}
}

func writeFilters(sb *strings.Builder, fs []*filter) {
	if len(fs) > 0 {
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = f.String()
		}
		fmt.Fprintf(sb, " filters[%s]", strings.Join(parts, " "))
	}
}

// --------------------------------------------------------------- nUnion

// nUnion expands both children to the union of their variables over
// the active domain, aligns columns and merges.
type nUnion struct {
	out          []logic.Var
	l, r         node
	lMiss, rMiss []logic.Var
	lProj, rProj []int
	keepDups     bool // root operator: Plan.Eval deduplicates by sort
}

func (n *nUnion) vars() []logic.Var { return n.out }

func (n *nUnion) exec(x *exec) (*bset, error) {
	out := x.set(n.out)
	for _, side := range []struct {
		child node
		miss  []logic.Var
		proj  []int
	}{{n.l, n.lMiss, n.lProj}, {n.r, n.rMiss, n.rProj}} {
		b, err := side.child.exec(x)
		if err != nil {
			return nil, err
		}
		if b, err = x.expand(b, side.miss); err != nil {
			return nil, err
		}
		for _, t := range b.rows {
			row := x.row(len(side.proj))
			for i, c := range side.proj {
				row[i] = t[c]
			}
			if n.keepDups {
				out.rows = append(out.rows, row)
			} else {
				out.add(row)
			}
		}
	}
	return out, nil
}

func (n *nUnion) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	fmt.Fprintf(sb, "union -> %s\n", varList(n.out))
	n.l.explain(sb, d+1)
	n.r.explain(sb, d+1)
}

// -------------------------------------------------------------- nProject

// nProject drops existentially bound variables. vacuous marks an ∃
// whose bound variables do not all occur in the child: those still
// range over the active domain, so over an EMPTY domain the result is
// empty even when the child holds (with a nonempty domain, expanding
// the missing vars and dropping them again is the identity).
type nProject struct {
	out      []logic.Var
	child    node
	cols     []int
	vacuous  bool
	keepDups bool // root operator: Plan.Eval deduplicates by sort
}

func (n *nProject) vars() []logic.Var { return n.out }

func (n *nProject) exec(x *exec) (*bset, error) {
	b, err := n.child.exec(x)
	if err != nil {
		return nil, err
	}
	if n.vacuous && len(x.domain()) == 0 {
		return x.set(n.out), nil
	}
	return x.project(b, n.cols, n.out, n.keepDups), nil
}

func (n *nProject) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	fmt.Fprintf(sb, "project -> %s\n", varList(n.out))
	n.child.explain(sb, d+1)
}

// ----------------------------------------------------------- nComplement

// nComplement is adom^k minus the child — in NNF it appears only over
// atoms and fixpoints, so k is an atom's variable count.
type nComplement struct {
	child node
}

func (n *nComplement) vars() []logic.Var { return n.child.vars() }

func (n *nComplement) exec(x *exec) (*bset, error) {
	b, err := n.child.exec(x)
	if err != nil {
		return nil, err
	}
	return x.complement(b)
}

func (n *nComplement) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	fmt.Fprintf(sb, "complement -> %s\n", varList(n.vars()))
	n.child.explain(sb, d+1)
}

// --------------------------------------------------------------- nForall

// nForall computes ∀x̄ φ as ¬∃x̄ ¬φ: the inner operator is the compiled
// NNF(¬φ), expanded so the bound variables range over the active domain
// (the vacuous-quantification case over an empty domain), projected down
// to the formula's free variables and complemented.
type nForall struct {
	out       []logic.Var
	inner     node
	boundMiss []logic.Var // bound vars absent from inner's bindings
	exProj    []int       // drops the bound vars after expansion
	exVars    []logic.Var
	miss      []logic.Var // out vars absent after the ∃ projection
	proj      []int
}

func (n *nForall) vars() []logic.Var { return n.out }

func (n *nForall) exec(x *exec) (*bset, error) {
	b, err := n.inner.exec(x)
	if err != nil {
		return nil, err
	}
	if b, err = x.expand(b, n.boundMiss); err != nil {
		return nil, err
	}
	b = x.project(b, n.exProj, n.exVars, false)
	if b, err = x.expand(b, n.miss); err != nil {
		return nil, err
	}
	b = x.project(b, n.proj, n.out, false)
	return x.complement(b)
}

func (n *nForall) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	fmt.Fprintf(sb, "forall -> %s\n", varList(n.out))
	n.inner.explain(sb, d+1)
}

// ------------------------------------------------------------- nFixpoint

// nFixpoint iterates its compiled body against a growing stage relation
// (inflationary µ⁺ semantics) and then scans the stage applied to the
// fixpoint's argument terms. The body is compiled once; each iteration
// re-executes it with the stage shadowing the recursion relation.
type nFixpoint struct {
	rel      string
	fvars    []logic.Var
	body     node
	bodyMiss []logic.Var
	bodyProj []int
	apply    *nScan
}

func (n *nFixpoint) vars() []logic.Var { return n.apply.out }

func (n *nFixpoint) exec(x *exec) (*bset, error) {
	stage := relation.New(len(n.fvars))
	if x.overlay == nil {
		x.overlay = make(map[string]*relation.Relation)
	}
	saved, had := x.overlay[n.rel]
	x.overlay[n.rel] = stage
	defer func() {
		if had {
			x.overlay[n.rel] = saved
		} else {
			delete(x.overlay, n.rel)
		}
	}()
	row := x.row(len(n.fvars))
	for iter := 1; ; iter++ {
		// Termination over the finite active domain is guaranteed, but
		// the iteration count is only bounded by |adom|^k — enforce the
		// budget and the deadline here.
		if err := x.ctl.FixpointIter(iter); err != nil {
			return nil, err
		}
		m := x.mark()
		b, err := n.body.exec(x)
		if err != nil {
			return nil, err
		}
		if b, err = x.expand(b, n.bodyMiss); err != nil {
			return nil, err
		}
		grew := false
		for _, t := range b.rows {
			for i, c := range n.bodyProj {
				row[i] = t[c]
			}
			if stage.Insert(row) {
				grew = true
			}
		}
		// The stage cloned every row it kept, so the iteration's scratch
		// is free for the next one.
		x.rewind(m)
		if !grew {
			break
		}
	}
	return n.apply.exec(x)
}

func (n *nFixpoint) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	fmt.Fprintf(sb, "fixpoint %s%s -> %s\n", n.rel, varList(n.fvars), varList(n.apply.out))
	n.body.explain(sb, d+1)
}

func varsEqual(a, b []logic.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
