// FuzzIncrementalEval is the coverage-guided arm of the differential
// suite: the byte stream decodes to a random (transducer, instance,
// delta-sequence) triple, and incremental repair must stay
// byte-identical to a from-scratch run after every applied delta.
package incr_test

import (
	"context"
	"strings"
	"testing"

	"ptx/internal/incr"
	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// fuzzBudget bounds both sides of the oracle: a decoded recursive
// transducer over a dense 3-value graph can blow up combinatorially,
// and the property under test is equivalence, not size.
const fuzzBudget = 20_000

type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func fuzzSchema() *relation.Schema {
	return relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
}

// instance decodes a few A(1) and E(2) facts over the domain {0,1,2}.
// One decode path starts from a completely empty instance (empty active
// domain) — deltas then grow it, so repair crosses the empty↔nonempty
// boundary in both directions.
func (d *fuzzDecoder) instance(s *relation.Schema) *relation.Instance {
	inst := relation.NewInstance(s)
	if d.byte()%5 == 0 {
		return inst
	}
	for k := int(d.byte()) % 4; k > 0; k-- {
		inst.Add("A", string(value.Of(int(d.byte())%3)))
	}
	for k := int(d.byte()) % 6; k > 0; k-- {
		inst.Add("E", string(value.Of(int(d.byte())%3)), string(value.Of(int(d.byte())%3)))
	}
	inst.Add("A", "0") // keep the active domain nonempty
	return inst
}

// queryPool is the rule-item template space: every query groups by one
// variable, so the decoded transducer is tuple-register of arity 1.
// Templates 2-4 read the register, making repair's dependency tracking
// and subtree reuse both reachable.
func queryPool() []*logic.Query {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	u, w := logic.Var("u"), logic.Var("w")
	return []*logic.Query{
		// all A-elements
		logic.MustQuery([]logic.Var{x}, nil, logic.R("A", x)),
		// E-successors of the register vertex
		logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y}, logic.Conj(logic.R(pt.RegRel, y), logic.R("E", y, x)))),
		// E-predecessors of the register vertex
		logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y}, logic.Conj(logic.R(pt.RegRel, y), logic.R("E", x, y)))),
		// the register itself, if A holds of it
		logic.MustQuery([]logic.Var{x}, nil,
			logic.Conj(logic.R(pt.RegRel, x), logic.R("A", x))),
		// edge sources
		logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y}, logic.R("E", x, y))),
		// vertices reachable from the register via E's transitive
		// closure: a recursive fixpoint on the repair path.
		logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y}, logic.Conj(
				logic.R(pt.RegRel, y),
				&logic.Fixpoint{
					Rel:  "S",
					Vars: []logic.Var{u, w},
					Body: &logic.Or{
						L: logic.R("E", u, w),
						R: logic.Ex([]logic.Var{z},
							logic.Conj(logic.R("S", u, z), logic.R("E", z, w))),
					},
					Args: []logic.Term{y, x},
				}))),
		// A-elements guarded by a vacuous ∀ with a shadowed rebind: true
		// over a nonempty domain, vacuously true over an empty one —
		// pins the ∀/∃ empty-domain semantics on the repair path.
		logic.MustQuery([]logic.Var{x}, nil,
			logic.Conj(logic.R("A", x),
				logic.All([]logic.Var{y}, logic.Ex([]logic.Var{y}, logic.R("A", y))))),
	}
}

// transducer decodes a small recursive transducer: 2-3 states over tags
// a/b, each rule carrying 1-2 items with pool queries and decoded
// targets. The ancestor stop condition bounds recursion (configs are
// (state, tag, one-of-3-values), so paths are short even when cyclic).
func (d *fuzzDecoder) transducer(s *relation.Schema) *pt.Transducer {
	pool := queryPool()
	states := []string{"q1", "q2", "q3"}[:2+int(d.byte())%2]
	tags := []string{"a", "b"}
	tr := pt.New("fuzz", s, "q0", "r")
	for _, tag := range tags {
		tr.DeclareTag(tag, 1)
	}
	item := func() pt.RHS {
		return pt.Item(states[int(d.byte())%len(states)],
			tags[int(d.byte())%len(tags)],
			pool[int(d.byte())%len(pool)])
	}
	// Root rule: distinct tags per item (a rule may not repeat a tag),
	// and only templates that do not read Reg — the root register is
	// 0-ary, so Reg-reading queries fail at birth.
	rootPool := []*logic.Query{pool[0], pool[4], pool[6]}
	rootItems := []pt.RHS{pt.Item(states[int(d.byte())%len(states)], "a", rootPool[int(d.byte())%len(rootPool)])}
	if d.byte()%2 == 0 {
		rootItems = append(rootItems, pt.Item(states[int(d.byte())%len(states)], "b", rootPool[int(d.byte())%len(rootPool)]))
	}
	tr.AddRule("q0", "r", rootItems...)
	for _, st := range states {
		for _, tag := range tags {
			if d.byte()%4 == 0 {
				continue // some (state, tag) configs are leaves
			}
			items := []pt.RHS{item()}
			if second := item(); second.Tag != items[0].Tag {
				items = append(items, second)
			}
			tr.AddRule(st, tag, items...)
		}
	}
	return tr
}

// deltas decodes 1-4 delta steps of 1-3 ops each over the same bounded
// domain, plus a fresh value "3" so inserts can genuinely grow the tree.
func (d *fuzzDecoder) deltas() []*relation.Delta {
	val := func() string {
		return string(value.Of(int(d.byte()) % 4))
	}
	steps := make([]*relation.Delta, 1+int(d.byte())%4)
	for i := range steps {
		dl := &relation.Delta{}
		for o, ops := 0, 1+int(d.byte())%3; o < ops; o++ {
			ins := d.byte()%2 == 0
			if d.byte()%2 == 0 {
				if ins {
					dl.Insert("A", val())
				} else {
					dl.Delete("A", val())
				}
			} else {
				if ins {
					dl.Insert("E", val(), val())
				} else {
					dl.Delete("E", val(), val())
				}
			}
		}
		steps[i] = dl
	}
	return steps
}

func FuzzIncrementalEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 4, 0, 1, 1, 2, 2, 0, 1, 0, 2, 3, 1, 0, 0, 1, 2, 1, 0, 0, 1, 1, 0})
	f.Add([]byte("incremental repair differential seed: deltas on E"))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// Seeds biased toward the empty-instance decode path (first byte ≡ 0
	// mod 5) and the fixpoint / vacuous-∀ pool templates (indices 5, 6).
	f.Add([]byte{0, 1, 0, 5, 1, 1, 6, 0, 2, 1, 0, 3, 1, 1, 0, 0, 1, 2})
	f.Add([]byte{5, 2, 1, 0, 2, 1, 2, 0, 1, 5, 1, 6, 0, 2, 2, 1, 0, 0, 3, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		s := fuzzSchema()
		oracle := d.instance(s)
		tr := d.transducer(s)
		steps := d.deltas()
		// Alternate the fallback policy so surgical repair and rebuild
		// are both exercised by the corpus.
		opts := incr.Options{Run: pt.Options{MaxNodes: fuzzBudget}}
		if d.byte()%2 == 0 {
			opts.RebuildThreshold = -1
		}
		// Cross-evaluator oracle: alternate which side runs on compiled
		// plans and which on the naive reference evaluator, so plan ≡
		// naive is asserted through the whole repair pipeline (not just
		// EvalQuery).
		opts.Run.NoPlan = d.byte()%2 == 0
		oracleOpts := pt.Options{MaxNodes: fuzzBudget, Cache: pt.CacheQueries, NoPlan: !opts.Run.NoPlan}
		v, err := incr.NewView(context.Background(), tr, oracle.Clone(), opts)
		if err != nil {
			t.Skip() // decoded workload outgrew the budget at birth
		}
		for i, dl := range steps {
			_, applyErr := v.Apply(context.Background(), dl)
			if _, err := oracle.Apply(dl); err != nil {
				t.Fatalf("step %d: oracle apply: %v", i, err)
			}
			ores, oerr := tr.Run(oracle, oracleOpts)
			if applyErr != nil {
				if oerr == nil {
					t.Fatalf("step %d: view failed (%v) but oracle ran fine on %s", i, applyErr, dl)
				}
				if _, _, serr := v.Snapshot(true); serr == nil {
					t.Fatalf("step %d: broken view served a snapshot", i)
				}
				return // both sides outgrew the budget
			}
			if oerr != nil {
				return
			}
			var sb strings.Builder
			if err := ores.Xi.WriteCanonicalVirtual(&sb, tr.Virtual); err != nil {
				t.Fatalf("step %d: serialize: %v", i, err)
			}
			got, _, err := v.Snapshot(true)
			if err != nil {
				t.Fatalf("step %d: snapshot: %v", i, err)
			}
			if string(got) != sb.String() {
				t.Fatalf("step %d (%s): view != rebuild\nview:    %s\nrebuild: %s\ninstance %s",
					i, dl, got, sb.String(), oracle)
			}
		}
	})
}
