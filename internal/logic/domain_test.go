package logic

import "testing"

func TestReadsDomain(t *testing.T) {
	x, y, z := Var("x"), Var("y"), Var("z")
	c := Const("c")
	tc := &Fixpoint{Rel: "T", Vars: []Var{x, y}, Body: Disj(R("E", x, y),
		Ex([]Var{z}, Conj(R("T", x, z), R("E", z, y)))), Args: []Term{x, y}}
	cases := []struct {
		name string
		q    *Query
		want bool
	}{
		{"atom", MustQuery([]Var{x}, nil, R("R", x)), false},
		{"guarded exists", MustQuery([]Var{x}, nil, Ex([]Var{y}, R("R", x, y))), false},
		{"eq const", MustQuery([]Var{x}, nil, EqT(x, c)), false},
		{"eq after atom", MustQuery([]Var{x, y}, nil, Conj(EqT(y, x), R("R", x))), false},
		{"neq bound", MustQuery([]Var{x, y}, nil, Conj(R("R", x), R("S", y), NeqT(x, y))), false},
		{"guarded not", MustQuery([]Var{x}, nil, Conj(R("R", x), &Not{F: R("S", x)})), false},
		{"tau3 root", MustQuery([]Var{x}, nil, Conj(Ex([]Var{z}, R("course", x, z)),
			&Not{F: Ex([]Var{y}, Conj(R("prereq", x, y), R("course", y, c)))})), false},
		{"or both bind", MustQuery([]Var{x}, nil, Disj(R("R", x), R("S", x))), false},
		{"sentence", MustQuery(nil, nil, Ex([]Var{x}, R("R", x))), false},
		{"shadowed head", MustQuery([]Var{x}, nil, Conj(R("R", x), Ex([]Var{x}, R("S", x)))), false},

		{"bare not", MustQuery([]Var{x}, nil, &Not{F: R("S", x)}), true},
		{"not of unguarded", MustQuery([]Var{x}, nil, Conj(R("R", x),
			&Not{F: Ex([]Var{y}, &Not{F: R("S", x, y)})})), true},
		{"free neq", MustQuery([]Var{x, y}, nil, Conj(R("R", x), NeqT(x, y))), true},
		{"free eq", MustQuery([]Var{x, y}, nil, EqT(x, y)), true},
		{"unbound head", MustQuery([]Var{x, y}, nil, R("R", x)), true},
		{"truth head", MustQuery([]Var{x}, nil, Conj(&Truth{B: true}, EqT(x, x))), true},
		{"vacuous exists", MustQuery(nil, nil, Ex([]Var{x}, &Truth{B: true})), true},
		{"or one binds", MustQuery([]Var{x, y}, nil, Disj(R("R", x, y), R("S", x))), true},
		{"forall", MustQuery(nil, nil, All([]Var{x}, R("R", x))), true},
		{"fixpoint", MustQuery([]Var{x, y}, nil, tc), true},
	}
	for _, tc := range cases {
		if got := tc.q.ReadsDomain(); got != tc.want {
			t.Errorf("%s: ReadsDomain(%s) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}
