// Package eval implements active-domain evaluation of CQ, FO and IFP
// formulas over a relational instance extended with register relations.
//
// A formula evaluates to a set of satisfying assignments for its free
// variables, represented as a relation whose columns are the variables
// in a fixed order (Bindings). Conjunction is a natural join,
// disjunction an aligned union, negation a complement against the
// active domain, ∃ a projection, ∀ is ¬∃¬, and the inflationary
// fixpoint iterates its body until the stage relation stops growing —
// exactly the µ⁺ semantics of the paper (Section 2).
//
// The active domain of an evaluation is adom(I) ∪ adom(registers) ∪
// constants(φ), the standard finite relativization.
//
// Eval, EvalSentence and EvalQuery run compiled plans (internal/plan).
// The evaluator in this package, reached through EvalNaive and
// EvalQueryNaive, computes the semantics above literally; it is the
// reference the plans are tested against.
package eval

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"ptx/internal/logic"
	"ptx/internal/plan"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/value"
)

// Env is an evaluation environment: a database instance, extra named
// relations (node registers and fixpoint stages), and the value domain
// the quantifiers range over.
type Env struct {
	inst *relation.Instance
	// extra holds the extra relations, at most a register and a
	// fixpoint stage or two, so lookups scan it. WithRelation copies it;
	// only Rebind, on an Env its caller owns, writes it in place.
	extra []namedRel
	// ctl carries the run-control checkpoints (cancellation, fixpoint
	// iteration budget) down into the evaluator; nil means unlimited.
	ctl *runctl.Controller
	// instAdom caches the instance's active domain; the instance is
	// immutable for the lifetime of an Env chain (registers live in
	// extra), and every Env derived from this one shares the cache.
	instAdom *adomCache
	// dom caches the merged inst∪extras active domain for this Env,
	// revalidated against the relation-level adom caches on each call
	// (see Domain).
	dom *domCache
	// noPlan routes EvalQuery to the reference evaluator; see
	// WithoutPlanner.
	noPlan bool
}

type namedRel struct {
	name string
	rel  *relation.Relation
}

// find returns the index of the extra relation named name, or -1.
func (e *Env) find(name string) int {
	for i := range e.extra {
		if e.extra[i].name == name {
			return i
		}
	}
	return -1
}

type adomCache struct {
	once sync.Once
	vals []value.V
}

// domCache memoizes an Env's merged active domain. parts holds the
// per-source adom slices the cached base was computed from; because
// relation.Relation itself caches ActiveDomain and reallocates the
// slice on mutation, slice identity doubles as a validity token — any
// mutation of the instance or an extra relation yields fresh part
// slices and forces a re-merge.
type domCache struct {
	mu    sync.Mutex
	ok    bool
	parts [][]value.V
	base  []value.V
}

// NewEnv builds an environment over inst. Register relations (or any
// other auxiliary relations, e.g. the "Reg" relation of the current
// node) are added with WithRelation.
func NewEnv(inst *relation.Instance) *Env {
	return &Env{inst: inst, instAdom: &adomCache{}, dom: &domCache{}}
}

// derivedEnv is one allocation holding an Env made by WithRelation, its
// domain cache and, for the usual one or two extras (a register and a
// fixpoint stage), their storage.
type derivedEnv struct {
	env   Env
	dom   domCache
	extra [2]namedRel
}

// WithRelation returns a copy of the environment in which name resolves
// to rel, shadowing any instance relation of the same name. The derived
// environment gets its own domain cache (the extras changed) but keeps
// the shared instance-adom cache.
func (e *Env) WithRelation(name string, rel *relation.Relation) *Env {
	d := &derivedEnv{}
	extra := append(d.extra[:0], e.extra...)
	if i := e.find(name); i >= 0 {
		extra[i].rel = rel
	} else {
		extra = append(extra, namedRel{name, rel})
	}
	d.env = Env{inst: e.inst, extra: extra, ctl: e.ctl, instAdom: e.instAdom, dom: &d.dom, noPlan: e.noPlan}
	return &d.env
}

// Rebind re-points name, which must already be an extra relation of e
// (bound by WithRelation), at rel in place, so that a caller stepping
// through many registers reuses one Env instead of deriving one per
// register. It is valid only on an Env its caller owns alone: no
// evaluation may be running on e, and Envs derived from e by
// WithControl or WithoutPlanner see the new binding too. The domain
// cache revalidates by the identity of each source's active-domain
// slice, so a register with a different domain forces a re-merge.
func (e *Env) Rebind(name string, rel *relation.Relation) {
	i := e.find(name)
	if i < 0 {
		panic("eval: Rebind of unbound relation " + name)
	}
	e.extra[i].rel = rel
}

// WithControl returns a copy of the environment whose evaluations check
// the given run controller (cancellation ticks in quantifier expansion
// and the fixpoint-iteration budget).
func (e *Env) WithControl(ctl *runctl.Controller) *Env {
	ne := &Env{inst: e.inst, extra: e.extra, ctl: ctl, instAdom: e.instAdom, dom: e.dom, noPlan: e.noPlan}
	return ne
}

// WithoutPlanner returns a copy of the environment in which EvalQuery
// runs the reference evaluator (EvalQueryNaive) instead of a compiled
// plan — what pt.Options.NoPlan and ptxml -plan=off set for
// differential debugging.
func (e *Env) WithoutPlanner() *Env {
	ne := &Env{inst: e.inst, extra: e.extra, ctl: e.ctl, instAdom: e.instAdom, dom: e.dom, noPlan: true}
	return ne
}

// Control returns the environment's run controller (possibly nil).
func (e *Env) Control() *runctl.Controller { return e.ctl }

// Lookup resolves a relation name: extra relations shadow the instance.
func (e *Env) Lookup(name string) (*relation.Relation, bool) {
	if i := e.find(name); i >= 0 {
		return e.extra[i].rel, true
	}
	if e.inst != nil {
		return e.inst.Lookup(name)
	}
	return nil, false
}

// Domain returns the active domain of the environment extended with the
// given constants, sorted. The inst∪extras merge is cached per Env and
// revalidated against the relation-level adom caches, so repeated
// evaluations against an unchanged environment share one slice; callers
// must treat the result as read-only.
func (e *Env) Domain(extraConsts []value.V) []value.V {
	base := e.domainBase()
	if len(extraConsts) == 0 {
		return base
	}
	for _, v := range extraConsts {
		if _, ok := slices.BinarySearchFunc(base, v, value.Compare); !ok {
			consts := slices.Clone(extraConsts)
			value.SortValues(consts)
			return value.Union(base, slices.Compact(consts))
		}
	}
	return base
}

// domainBase returns the merged active domain of the instance and the
// extra relations, cached on the Env. Validity tracking is by slice
// identity: each source's ActiveDomain slice is cached on the relation
// and reallocated when the relation mutates, so comparing the part
// slices detects any mutation since the last merge.
func (e *Env) domainBase() []value.V {
	parts := make([][]value.V, 0, len(e.extra)+1)
	if e.inst != nil {
		if e.instAdom != nil {
			e.instAdom.once.Do(func() { e.instAdom.vals = e.inst.ActiveDomain() })
			parts = append(parts, e.instAdom.vals)
		} else {
			parts = append(parts, e.inst.ActiveDomain())
		}
	}
	for _, x := range e.extra {
		parts = append(parts, x.rel.ActiveDomain())
	}
	if e.dom == nil {
		return value.Union(parts...)
	}
	e.dom.mu.Lock()
	defer e.dom.mu.Unlock()
	if e.dom.ok && sameDomainParts(e.dom.parts, parts) {
		return e.dom.base
	}
	base := value.Union(parts...)
	e.dom.ok = true
	e.dom.parts = parts
	e.dom.base = base
	return base
}

func sameDomainParts(a, b [][]value.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		if len(a[i]) > 0 && &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// Bindings is a set of assignments: a relation whose columns are the
// listed variables, in order.
type Bindings struct {
	Vars []logic.Var
	Rel  *relation.Relation
}

func newBindings(vars []logic.Var) *Bindings {
	return &Bindings{Vars: vars, Rel: relation.New(len(vars))}
}

// unitBindings is the single empty assignment over no variables
// (the truth value "true" for sentences).
func unitBindings() *Bindings {
	b := newBindings(nil)
	b.Rel.Add(value.Tuple{})
	return b
}

func (b *Bindings) varIndex() map[logic.Var]int {
	idx := make(map[logic.Var]int, len(b.Vars))
	for i, v := range b.Vars {
		idx[v] = i
	}
	return idx
}

// Eval evaluates formula f in environment env and returns its satisfying
// assignments over FreeVars(f), in that order. It compiles a plan on
// every call: callers such as internal/transduction build a fresh
// formula per tuple, so a formula-keyed plan cache would grow without
// bound.
func Eval(f logic.Formula, env *Env) (*Bindings, error) {
	q := &logic.Query{ContentVars: logic.FreeVars(f), F: f}
	p, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	rel, err := p.Eval(env)
	if err != nil {
		return nil, err
	}
	return &Bindings{Vars: q.ContentVars, Rel: rel}, nil
}

// EvalNaive evaluates f on the textbook active-domain evaluator (¬ as a
// complement, ∀ as ¬∃¬, ∧ as a natural join) — the reference Eval is
// tested against and the ablation baseline (BenchmarkAblationEval).
func EvalNaive(f logic.Formula, env *Env) (*Bindings, error) {
	ev := &evaluator{env: env, ctl: env.ctl, adom: env.Domain(logic.Constants(f))}
	return ev.eval(f)
}

// EvalSentence evaluates a formula with no free variables to a boolean.
func EvalSentence(f logic.Formula, env *Env) (bool, error) {
	if fv := logic.FreeVars(f); len(fv) != 0 {
		return false, fmt.Errorf("eval: sentence has free variables %v", fv)
	}
	b, err := Eval(f, env)
	if err != nil {
		return false, err
	}
	return !b.Rel.Empty(), nil
}

// EvalQuery evaluates a transducer query φ(x̄;ȳ) to a relation over the
// head x̄·ȳ. Head variables that do not occur free in the formula range
// over the active domain (standard relativized semantics). The query
// runs on its compiled plan (planFor), or on EvalQueryNaive in an
// environment built WithoutPlanner.
func EvalQuery(q *logic.Query, env *Env) (*relation.Relation, error) {
	if env.noPlan {
		return EvalQueryNaive(q, env)
	}
	// One OpEval fault checkpoint per actual evaluation: memo hits skip
	// it, so seeded chaos plans can distinguish cached from fresh work.
	if err := env.ctl.Fault(runctl.OpEval); err != nil {
		return nil, err
	}
	p, err := planFor(q)
	if err != nil {
		return nil, err
	}
	return p.Eval(env)
}

// EvalQueryNaive is EvalQuery on the textbook evaluator (see EvalNaive)
// — the differential oracle of the fuzz and cache-equivalence suites.
func EvalQueryNaive(q *logic.Query, env *Env) (*relation.Relation, error) {
	if err := env.ctl.Fault(runctl.OpEval); err != nil {
		return nil, err
	}
	ev := &evaluator{env: env, ctl: env.ctl, adom: env.Domain(logic.Constants(q.F))}
	b, err := ev.eval(q.F)
	if err != nil {
		return nil, err
	}
	b, err = ev.expandTo(b, q.Head())
	if err != nil {
		return nil, err
	}
	// Reorder columns to head order.
	idx := b.varIndex()
	head := q.Head()
	cols := make([]int, len(head))
	for i, v := range head {
		cols[i] = idx[v]
	}
	return b.Rel.Project(cols...), nil
}

type evaluator struct {
	env  *Env
	ctl  *runctl.Controller
	adom []value.V
}

func (ev *evaluator) eval(f logic.Formula) (*Bindings, error) {
	if err := ev.ctl.Tick(); err != nil {
		return nil, err
	}
	switch g := f.(type) {
	case *logic.Truth:
		if g.B {
			return unitBindings(), nil
		}
		return newBindings(nil), nil
	case *logic.Atom:
		return ev.evalAtom(g)
	case *logic.Eq:
		return ev.evalEq(g.L, g.R, true)
	case *logic.Neq:
		return ev.evalEq(g.L, g.R, false)
	case *logic.And:
		l, err := ev.eval(g.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(g.R)
		if err != nil {
			return nil, err
		}
		return ev.join(l, r), nil
	case *logic.Or:
		l, err := ev.eval(g.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(g.R)
		if err != nil {
			return nil, err
		}
		return ev.union(l, r)
	case *logic.Not:
		inner, err := ev.eval(g.F)
		if err != nil {
			return nil, err
		}
		return ev.complement(inner)
	case *logic.Exists:
		inner, err := ev.eval(g.F)
		if err != nil {
			return nil, err
		}
		ex := ev.projectOut(inner, g.Bound)
		// Bound variables φ does not mention still range over the active
		// domain: over an empty domain ∃x ψ is false even when ψ holds,
		// which a bare column drop gets wrong. (With a nonempty domain,
		// expanding the missing bound vars and dropping them again is the
		// identity, so the column drop stands.)
		if len(ev.adom) == 0 && len(missingVars(g.Bound, inner.Vars)) > 0 {
			return newBindings(ex.Vars), nil
		}
		return ex, nil
	case *logic.Forall:
		// ∀x̄ φ ≡ ¬∃x̄ ¬φ over the active domain, computed by direct
		// complementation.
		inner, err := ev.eval(g.F)
		if err != nil {
			return nil, err
		}
		want := append(append([]logic.Var{}, logic.FreeVars(g.F)...), missingVars(g.Bound, logic.FreeVars(g.F))...)
		inner, err = ev.expandTo(inner, want)
		if err != nil {
			return nil, err
		}
		neg, err := ev.complement(inner)
		if err != nil {
			return nil, err
		}
		exNeg := ev.projectOut(neg, g.Bound)
		return ev.complement(exNeg)
	case *logic.Fixpoint:
		return ev.evalFixpoint(g)
	}
	return nil, fmt.Errorf("eval: unknown formula %T", f)
}

func missingVars(vs []logic.Var, have []logic.Var) []logic.Var {
	set := make(map[logic.Var]bool, len(have))
	for _, v := range have {
		set[v] = true
	}
	var out []logic.Var
	for _, v := range vs {
		if !set[v] {
			out = append(out, v)
		}
	}
	return out
}

func (ev *evaluator) evalAtom(a *logic.Atom) (*Bindings, error) {
	rel, ok := ev.env.Lookup(a.Rel)
	if !ok {
		return nil, fmt.Errorf("eval: unknown relation %q in atom %s", a.Rel, a)
	}
	if rel.Arity() != len(a.Args) {
		return nil, fmt.Errorf("eval: atom %s has %d args but relation %q has arity %d",
			a, len(a.Args), a.Rel, rel.Arity())
	}
	// Distinct variables of the atom, in first-occurrence order.
	var vars []logic.Var
	varPos := make(map[logic.Var][]int)
	for i, t := range a.Args {
		if v, okv := t.(logic.Var); okv {
			if _, seen := varPos[v]; !seen {
				vars = append(vars, v)
			}
			varPos[v] = append(varPos[v], i)
		}
	}
	out := newBindings(vars)
	rel.Each(func(t value.Tuple) bool {
		// Check constants.
		for i, arg := range a.Args {
			if c, okc := arg.(logic.Const); okc && t[i] != value.V(c) {
				return true
			}
		}
		// Check repeated variables agree; extract assignment.
		asg := make(value.Tuple, len(vars))
		for vi, v := range vars {
			positions := varPos[v]
			first := t[positions[0]]
			for _, p := range positions[1:] {
				if t[p] != first {
					return true
				}
			}
			asg[vi] = first
		}
		out.Rel.Add(asg)
		return true
	})
	return out, nil
}

func (ev *evaluator) evalEq(l, r logic.Term, wantEq bool) (*Bindings, error) {
	lv, lIsVar := l.(logic.Var)
	rv, rIsVar := r.(logic.Var)
	switch {
	case !lIsVar && !rIsVar:
		lc := value.V(l.(logic.Const))
		rc := value.V(r.(logic.Const))
		if (lc == rc) == wantEq {
			return unitBindings(), nil
		}
		return newBindings(nil), nil
	case lIsVar && rIsVar:
		if lv == rv {
			// x=x is true for all adom values; x≠x is false.
			out := newBindings([]logic.Var{lv})
			if wantEq {
				for _, d := range ev.adom {
					out.Rel.Add(value.Tuple{d})
				}
			}
			return out, nil
		}
		out := newBindings([]logic.Var{lv, rv})
		for _, d1 := range ev.adom {
			if wantEq {
				out.Rel.Add(value.Tuple{d1, d1})
				continue
			}
			for _, d2 := range ev.adom {
				if d1 != d2 {
					out.Rel.Add(value.Tuple{d1, d2})
				}
			}
		}
		return out, nil
	default:
		// One variable, one constant.
		v := lv
		var c value.V
		if lIsVar {
			c = value.V(r.(logic.Const))
		} else {
			v = rv
			c = value.V(l.(logic.Const))
		}
		out := newBindings([]logic.Var{v})
		if wantEq {
			out.Rel.Add(value.Tuple{c})
			return out, nil
		}
		for _, d := range ev.adom {
			if d != c {
				out.Rel.Add(value.Tuple{d})
			}
		}
		return out, nil
	}
}

// join computes the natural join of two binding sets.
func (ev *evaluator) join(l, r *Bindings) *Bindings {
	lIdx := l.varIndex()
	rIdx := r.varIndex()
	var shared []logic.Var
	var rOnly []logic.Var
	for _, v := range r.Vars {
		if _, ok := lIdx[v]; ok {
			shared = append(shared, v)
		} else {
			rOnly = append(rOnly, v)
		}
	}
	outVars := append(append([]logic.Var{}, l.Vars...), rOnly...)
	out := newBindings(outVars)

	// Hash the smaller side on the shared key.
	key := func(t value.Tuple, idx map[logic.Var]int) string {
		k := make(value.Tuple, len(shared))
		for i, v := range shared {
			k[i] = t[idx[v]]
		}
		return k.Key()
	}
	rHash := make(map[string][]value.Tuple)
	r.Rel.EachUnordered(func(t value.Tuple) bool {
		k := key(t, rIdx)
		rHash[k] = append(rHash[k], t)
		return true
	})
	l.Rel.EachUnordered(func(lt value.Tuple) bool {
		for _, rt := range rHash[key(lt, lIdx)] {
			t := make(value.Tuple, 0, len(outVars))
			t = append(t, lt...)
			for _, v := range rOnly {
				t = append(t, rt[rIdx[v]])
			}
			out.Rel.Add(t)
		}
		return true
	})
	return out
}

// union computes l ∪ r after expanding both sides to the union of their
// variables over the active domain.
func (ev *evaluator) union(l, r *Bindings) (*Bindings, error) {
	outVars := append([]logic.Var{}, l.Vars...)
	set := make(map[logic.Var]bool, len(outVars))
	for _, v := range outVars {
		set[v] = true
	}
	for _, v := range r.Vars {
		if !set[v] {
			outVars = append(outVars, v)
			set[v] = true
		}
	}
	le, err := ev.expandTo(l, outVars)
	if err != nil {
		return nil, err
	}
	re, err := ev.expandTo(r, outVars)
	if err != nil {
		return nil, err
	}
	// Align re's columns to le's order.
	reIdx := re.varIndex()
	cols := make([]int, len(outVars))
	for i, v := range le.Vars {
		cols[i] = reIdx[v]
	}
	aligned := re.Rel.Project(cols...)
	out := &Bindings{Vars: le.Vars, Rel: relation.Union(le.Rel, aligned)}
	return out, nil
}

// complement returns adom^k minus the bindings, over the same variables.
// The adom^k sweep is one of the two places evaluation cost explodes
// with the active domain, so it polls the run controller as it goes.
func (ev *evaluator) complement(b *Bindings) (*Bindings, error) {
	out := newBindings(b.Vars)
	t := make(value.Tuple, len(b.Vars))
	var stop error
	var rec func(i int)
	rec = func(i int) {
		if stop != nil {
			return
		}
		if i == len(b.Vars) {
			if stop = ev.ctl.Tick(); stop != nil {
				return
			}
			if !b.Rel.Contains(t) {
				out.Rel.Add(t)
			}
			return
		}
		for _, d := range ev.adom {
			t[i] = d
			rec(i + 1)
			if stop != nil {
				return
			}
		}
	}
	rec(0)
	if stop != nil {
		return nil, stop
	}
	return out, nil
}

// projectOut removes the given variables from the bindings.
func (ev *evaluator) projectOut(b *Bindings, drop []logic.Var) *Bindings {
	dropSet := make(map[logic.Var]bool, len(drop))
	for _, v := range drop {
		dropSet[v] = true
	}
	var keepVars []logic.Var
	var keepCols []int
	for i, v := range b.Vars {
		if !dropSet[v] {
			keepVars = append(keepVars, v)
			keepCols = append(keepCols, i)
		}
	}
	return &Bindings{Vars: keepVars, Rel: b.Rel.Project(keepCols...)}
}

// expandTo extends the bindings to cover vars, letting new variables
// range over the active domain. Like complement, the expansion is
// adom^|missing| per tuple, so it polls the run controller.
func (ev *evaluator) expandTo(b *Bindings, vars []logic.Var) (*Bindings, error) {
	have := make(map[logic.Var]bool, len(b.Vars))
	for _, v := range b.Vars {
		have[v] = true
	}
	var missing []logic.Var
	seen := make(map[logic.Var]bool)
	for _, v := range vars {
		if !have[v] && !seen[v] {
			missing = append(missing, v)
			seen[v] = true
		}
	}
	if len(missing) == 0 {
		return b, nil
	}
	outVars := append(append([]logic.Var{}, b.Vars...), missing...)
	out := newBindings(outVars)
	ext := make(value.Tuple, len(missing))
	var stop error
	var rec func(base value.Tuple, i int)
	rec = func(base value.Tuple, i int) {
		if stop != nil {
			return
		}
		if i == len(missing) {
			if stop = ev.ctl.Tick(); stop != nil {
				return
			}
			out.Rel.Add(value.Concat(base, ext))
			return
		}
		for _, d := range ev.adom {
			ext[i] = d
			rec(base, i+1)
			if stop != nil {
				return
			}
		}
	}
	b.Rel.EachUnordered(func(t value.Tuple) bool {
		rec(t, 0)
		return stop == nil
	})
	if stop != nil {
		return nil, stop
	}
	return out, nil
}

// evalFixpoint computes the inflationary fixpoint of the body and then
// treats the result as an atom applied to the fixpoint's argument terms.
func (ev *evaluator) evalFixpoint(fp *logic.Fixpoint) (*Bindings, error) {
	k := len(fp.Vars)
	if len(fp.Args) != k {
		return nil, fmt.Errorf("eval: fixpoint %s applied to %d terms, expects %d", fp.Rel, len(fp.Args), k)
	}
	stage := relation.New(k)
	for iter := 1; ; iter++ {
		// The loop is guaranteed to terminate over the finite active
		// domain, but the number of iterations is only bounded by
		// |adom|^k — enforce the budget and the deadline here.
		if err := ev.ctl.FixpointIter(iter); err != nil {
			return nil, err
		}
		stageEnv := ev.env.WithRelation(fp.Rel, stage)
		inner := &evaluator{env: stageEnv, ctl: ev.ctl, adom: ev.adom}
		b, err := inner.eval(fp.Body)
		if err != nil {
			return nil, err
		}
		b, err = inner.expandTo(b, fp.Vars)
		if err != nil {
			return nil, err
		}
		idx := b.varIndex()
		cols := make([]int, k)
		for i, v := range fp.Vars {
			ci, ok := idx[v]
			if !ok {
				return nil, fmt.Errorf("eval: fixpoint variable %s lost during evaluation", v)
			}
			cols[i] = ci
		}
		next := b.Rel.Project(cols...)
		if !stage.UnionWith(next) {
			break
		}
	}
	// Apply the fixpoint relation to the argument terms like an atom.
	atomEnv := ev.env.WithRelation(fp.Rel, stage)
	inner := &evaluator{env: atomEnv, ctl: ev.ctl, adom: ev.adom}
	return inner.evalAtom(&logic.Atom{Rel: fp.Rel, Args: fp.Args})
}

// SortedVars returns a copy of vs sorted by name; useful when asserting
// evaluation results in tests.
func SortedVars(vs []logic.Var) []logic.Var {
	out := append([]logic.Var{}, vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
