// BenchmarkPlanVsNaive quantifies the point of internal/plan: on a
// join-heavy query family the compiled path (hash joins, bound-prefix
// filters, interned keys) must beat the textbook active-domain
// evaluator by a wide margin. TestPlanSpeedupGuard pins the acceptance
// ratio (>=5x ns/op) so a planner regression fails CI rather than just
// drifting a chart.
package eval

import (
	"fmt"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// benchGraph builds a deterministic sparse digraph: a ring plus
// quadratic skip edges, 2n edges over n vertices. Dense enough that
// 3-way joins have real work, sparse enough that the naive evaluator
// finishes in benchmark time.
func benchGraph(n int) *relation.Instance {
	s := relation.NewSchema().MustDeclare("E", 2)
	inst := relation.NewInstance(s)
	for i := 0; i < n; i++ {
		inst.Add("E", string(value.Of(i)), string(value.Of((i+1)%n)))
		inst.Add("E", string(value.Of(i)), string(value.Of((i*i+3)%n)))
	}
	return inst
}

type planBenchCase struct {
	name string
	q    *logic.Query
	env  *Env
}

// counterBenchEnv is the Proposition 1(4) counter with n digits (the
// adder table, the digit successor and the initial counter) and a
// register holding one state of it, as at an a-node.
func counterBenchEnv(n int) *Env {
	s := relation.NewSchema().MustDeclare("counter", 3).MustDeclare("add", 5).MustDeclare("next", 2)
	inst := relation.NewInstance(s)
	reg := relation.New(3)
	for k := 0; k < n; k++ {
		carry := "0"
		if k == 0 {
			carry = "1"
		}
		inst.Add("counter", fmt.Sprint(k), "0", carry)
		inst.Add("next", fmt.Sprint(k), fmt.Sprint((k+1)%n))
		reg.Add(value.Tuple{value.V(fmt.Sprint(k)), value.V(fmt.Sprint(k % 2)), "0"})
	}
	for _, row := range [][]string{
		{"0", "0", "0", "0", "0"}, {"0", "0", "1", "1", "0"},
		{"0", "1", "0", "1", "0"}, {"0", "1", "1", "0", "1"},
		{"1", "0", "0", "1", "0"}, {"1", "0", "1", "0", "1"},
		{"1", "1", "0", "0", "1"}, {"1", "1", "1", "1", "1"},
	} {
		inst.Add("add", row...)
	}
	return NewEnv(inst).WithRelation("Reg", reg)
}

// diamondBenchEnv is the Proposition 1(3) chain of n diamonds, R with
// 4n edges, and a one-vertex register, as at an unfolding's a-node.
func diamondBenchEnv(n int) *Env {
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("R", 2))
	for k := 0; k < n; k++ {
		for j := 0; j < 2; j++ {
			b := fmt.Sprintf("b%d_%d", k, j)
			inst.Add("R", fmt.Sprintf("a%d", k), b)
			inst.Add("R", b, fmt.Sprintf("a%d", k+1))
		}
	}
	return NewEnv(inst).WithRelation("Reg", relation.FromRows([]string{"a3"}))
}

// planBenchCases is the join-heavy family: a 3-hop path with an
// endpoint disequality (joins + a filter that the naive path turns
// into an adom-wide expansion) and a triangle (cyclic join graph, so
// join order matters) over a 48-vertex graph, and the two
// register-anchored rule queries of Proposition 1: the counter's
// 5-atom join of its register with the adder (n = 4 digits) and the
// unfolding's Reg(y) & R(y,x) over 10 diamonds.
func planBenchCases() []planBenchCase {
	x, y, z, w := logic.Var("x"), logic.Var("y"), logic.Var("z"), logic.Var("w")
	k, d, c := logic.Var("k"), logic.Var("d"), logic.Var("c")
	d1, c1, kp, d2, c2, d3, c3 := logic.Var("d1"), logic.Var("c1"), logic.Var("kp"),
		logic.Var("d2"), logic.Var("c2"), logic.Var("d3"), logic.Var("c3")
	graph := NewEnv(benchGraph(48))
	return []planBenchCase{
		{"path3-neq", logic.MustQuery([]logic.Var{x, w}, nil,
			logic.Ex([]logic.Var{y, z}, logic.Conj(
				logic.R("E", x, y), logic.R("E", y, z), logic.R("E", z, w),
				logic.NeqT(x, w)))), graph},
		{"triangle", logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y, z}, logic.Conj(
				logic.R("E", x, y), logic.R("E", y, z), logic.R("E", z, x),
				logic.NeqT(x, y)))), graph},
		{"counter-step", logic.MustQuery(nil, []logic.Var{k, d, c},
			logic.Ex([]logic.Var{d1, c1, kp, d2, c2, d3, c3}, logic.Conj(
				logic.R("Reg", k, d1, c1), logic.R("Reg", kp, d2, c2), logic.R("next", kp, k),
				logic.R("counter", k, d3, c3), logic.R("add", d1, c2, c3, d, c)))), counterBenchEnv(4)},
		{"unfold-step", logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y}, logic.Conj(logic.R("Reg", y), logic.R("R", y, x)))), diamondBenchEnv(10)},
	}
}

func BenchmarkPlanVsNaive(b *testing.B) {
	for _, c := range planBenchCases() {
		b.Run("plan/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EvalQuery(c.q, c.env); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("naive/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EvalQueryNaive(c.q, c.env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanSpeedupGuard pins the acceptance criterion: on every case of
// the join family, the compiled plan runs at least 5x faster than the
// naive active-domain evaluator (it also cross-checks the results are
// equal, so the guard cannot pass by computing the wrong answer fast).
func TestPlanSpeedupGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	for _, c := range planBenchCases() {
		t.Run(c.name, func(t *testing.T) {
			got, err := EvalQuery(c.q, c.env)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvalQueryNaive(c.q, c.env)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("plan and naive disagree on %s", c.name)
			}
			plan := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := EvalQuery(c.q, c.env); err != nil {
						b.Fatal(err)
					}
				}
			})
			naive := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := EvalQueryNaive(c.q, c.env); err != nil {
						b.Fatal(err)
					}
				}
			})
			ratio := float64(naive.NsPerOp()) / float64(plan.NsPerOp())
			t.Logf("%s: plan %d ns/op, naive %d ns/op, speedup %.1fx",
				c.name, plan.NsPerOp(), naive.NsPerOp(), ratio)
			if ratio < 5 {
				t.Fatalf("plan speedup below 5x: %.1fx (plan %d ns/op, naive %d ns/op)",
					ratio, plan.NsPerOp(), naive.NsPerOp())
			}
		})
	}
}
