package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The seeded input generator. A seed fixes every name, title, wiring
// choice and toggle slot; the SHAPE of each input (layer count, width,
// out-degree, family parameter) is fixed, so two seeds give different
// bytes but the same amount of work. The program under test only ever
// sees the generated texts.

// Shape parameters. They are constants, not flags: a run's cost must not
// depend on anything but the workload and (through labels only) the seed.
const (
	regLayers = 5 // registrar prerequisite DAG depth
	regWidth  = 8 // courses per layer
	regSlots  = 3 // toggle slots per registrar database (2^3 states)
	chainLen  = 12
	diamondN  = 5
	counterN  = 2
	tcLayers  = 5
	tcWidth   = 4
)

// regConsts are the seeded constants a registrar database and the specs
// over it must agree on: the department τ1 publishes and the title τ3
// filters on.
type regConsts struct {
	dept, dbTitle string
}

// Toggle is one mutation slot: course Course has prerequisite Old in one
// state and New in the other. Flipping it deletes one edge and inserts
// the other, so the database size and every course's out-degree stay
// constant.
type Toggle struct {
	Course, Old, New string
}

// ops returns the flip as /mutate wire ops: out of state 0 (Old present)
// when on is false, back into it when on is true.
func (t Toggle) ops(on bool) []mutateOp {
	del, ins := t.Old, t.New
	if on {
		del, ins = t.New, t.Old
	}
	return []mutateOp{
		{Op: "delete", Rel: "prereq", Tuple: []string{t.Course, del}},
		{Op: "insert", Rel: "prereq", Tuple: []string{t.Course, ins}},
	}
}

type mutateOp struct {
	Op    string   `json:"op"`
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
}

// DBInput is one generated database text plus what the benchmark needs
// to drive and check it.
type DBInput struct {
	Name    string
	Text    string
	Toggles []Toggle       // empty for databases that are never mutated
	Sizes   map[string]int // recorded in the output
}

// Inputs is everything one seed generates.
type Inputs struct {
	Seed  int64
	Specs map[string]string
	DBs   map[string]*DBInput
}

// generate builds the inputs of every workload from one seed. Each
// workload uses a subset; generating all of them keeps the bytes of a
// given input independent of which workload asked for it.
func generate(seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed))
	c := regConsts{dept: "D" + word(rng, 3), dbTitle: "T" + word(rng, 4)}
	in := &Inputs{Seed: seed, Specs: map[string]string{}, DBs: map[string]*DBInput{}}
	in.Specs["tau1"] = tau1Spec(c)
	in.Specs["tau2v"] = tau2vSpec
	in.Specs["tau3"] = tau3Spec(c)
	in.Specs["unfold"] = unfoldSpec
	in.Specs["counter"] = counterSpec
	in.Specs["tc"] = tcSpec
	for i := 0; i < 6; i++ {
		// The index is not the name's last byte: the cluster ring hashes
		// (spec, db) keys with FNV-1a, which puts keys that differ only in
		// their last byte next to each other on the ring, and the cluster
		// workload needs its pairs spread over every node.
		name := fmt.Sprintf("reg%d-db", i)
		in.DBs[name] = genRegistrar(rng, name, c)
	}
	in.DBs["chain"] = genChain(rng, c)
	in.DBs["diamond0"] = genDiamond(rng, "diamond0")
	in.DBs["diamond1"] = genDiamond(rng, "diamond1")
	in.DBs["counter"] = genCounter(rng)
	in.DBs["tcgraph"] = genTCGraph(rng)
	return in
}

const letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"

func word(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// names returns n distinct seeded identifiers sharing a seeded prefix.
func names(rng *rand.Rand, n int) []string {
	prefix := word(rng, 2)
	perm := rng.Perm(10 * n)
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, perm[i])
	}
	return out
}

var titleWords = []string{"Intro", "Advanced", "Applied", "Theory", "Systems", "Logic",
	"Algebra", "Networks", "Compilers", "Graphics", "Security", "Data", "Methods", "Design"}

func title(rng *rand.Rand) string {
	return titleWords[rng.Intn(len(titleWords))] + " " + titleWords[rng.Intn(len(titleWords))] + " " + word(rng, 2)
}

// dbText renders facts in the parser's surface syntax in a seeded order.
func dbText(rng *rand.Rand, header string, facts []string) string {
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	return header + "\n" + strings.Join(facts, "\n") + "\n"
}

func fact(rel string, vals ...string) string {
	q := make([]string, len(vals))
	for i, v := range vals {
		q[i] = "'" + v + "'"
	}
	return rel + "(" + strings.Join(q, ", ") + ")"
}

// genRegistrar builds a layered prerequisite DAG: regLayers layers of
// regWidth courses, every course outside the last layer with exactly two
// prerequisites in the next one. Half of each layer is in the published
// department and one course per layer carries τ3's filtered title, so
// τ1's unfolding has the same size for every seed and every toggle state.
func genRegistrar(rng *rand.Rand, name string, c regConsts) *DBInput {
	ids := names(rng, regLayers*regWidth)
	other := []string{"D" + word(rng, 3), "D" + word(rng, 3)}
	course := func(l, j int) string { return ids[l*regWidth+j] }
	var facts []string
	prereqs := map[string][]string{}
	edges := 0
	for l := 0; l < regLayers; l++ {
		inDept := rng.Perm(regWidth)[:regWidth/2]
		dbAt := rng.Intn(regWidth)
		for j := 0; j < regWidth; j++ {
			dept := other[rng.Intn(len(other))]
			for _, k := range inDept {
				if k == j {
					dept = c.dept
				}
			}
			t := title(rng)
			if j == dbAt {
				t = c.dbTitle
			}
			facts = append(facts, fact("course", course(l, j), t, dept))
			if l+1 < regLayers {
				for _, k := range rng.Perm(regWidth)[:2] {
					p := course(l+1, k)
					prereqs[course(l, j)] = append(prereqs[course(l, j)], p)
					facts = append(facts, fact("prereq", course(l, j), p))
					edges++
				}
			}
		}
	}
	// Toggle slots on distinct courses, so flips never interact.
	var toggles []Toggle
	for _, idx := range rng.Perm((regLayers - 1) * regWidth)[:regSlots] {
		l, j := idx/regWidth, idx%regWidth
		cur := prereqs[course(l, j)]
		old := cur[rng.Intn(2)]
		var alts []string
		for k := 0; k < regWidth; k++ {
			if p := course(l+1, k); p != cur[0] && p != cur[1] {
				alts = append(alts, p)
			}
		}
		toggles = append(toggles, Toggle{Course: course(l, j), Old: old, New: alts[rng.Intn(len(alts))]})
	}
	return &DBInput{
		Name:    name,
		Text:    dbText(rng, "# seeded registrar database "+name, facts),
		Toggles: toggles,
		Sizes:   map[string]int{"courses": regLayers * regWidth, "prereq_edges": edges, "toggle_slots": regSlots},
	}
}

// genChain is chain(n): n published courses, each the prerequisite of
// the one before it (τ1's output is quadratic in n).
func genChain(rng *rand.Rand, c regConsts) *DBInput {
	ids := names(rng, chainLen)
	var facts []string
	for i, id := range ids {
		facts = append(facts, fact("course", id, title(rng), c.dept))
		if i+1 < len(ids) {
			facts = append(facts, fact("prereq", id, ids[i+1]))
		}
	}
	return &DBInput{Name: "chain", Text: dbText(rng, "# seeded chain", facts),
		Sizes: map[string]int{"courses": chainLen, "prereq_edges": chainLen - 1}}
}

// genDiamond is the Proposition 1(3) chain of n diamonds with seeded
// vertex names: 4n edges, at least 2^n leaves in the unfolding.
func genDiamond(rng *rand.Rand, name string) *DBInput {
	ids := names(rng, 3*diamondN+1)
	a := func(k int) string { return ids[k] }
	b := func(k, j int) string { return ids[diamondN+1+2*k+j] }
	var facts []string
	for k := 0; k < diamondN; k++ {
		for j := 0; j < 2; j++ {
			facts = append(facts, fact("R", a(k), b(k, j)), fact("R", b(k, j), a(k+1)))
		}
	}
	return &DBInput{Name: name, Text: dbText(rng, "# seeded diamond chain", facts),
		Sizes: map[string]int{"diamond_n": diamondN, "graph_nodes": 3*diamondN + 1, "graph_edges": 4 * diamondN}}
}

// genCounter is the Proposition 1(4) n-digit counter Jn with seeded digit
// names (the digit values and the adder table are fixed by the proof).
func genCounter(rng *rand.Rand) *DBInput {
	ids := names(rng, counterN)
	var facts []string
	for k := 0; k < counterN; k++ {
		carry := "0"
		if k == 0 {
			carry = "1"
		}
		facts = append(facts, fact("counter", ids[k], "0", carry), fact("next", ids[k], ids[(k+1)%counterN]))
	}
	for _, row := range [][]string{
		{"0", "0", "0", "0", "0"}, {"0", "0", "1", "1", "0"},
		{"0", "1", "0", "1", "0"}, {"0", "1", "1", "0", "1"},
		{"1", "0", "0", "1", "0"}, {"1", "0", "1", "0", "1"},
		{"1", "1", "0", "0", "1"}, {"1", "1", "1", "1", "1"},
	} {
		facts = append(facts, fact("add", row...))
	}
	return &DBInput{Name: "counter", Text: dbText(rng, "# seeded counter", facts),
		Sizes: map[string]int{"counter_n": counterN}}
}

// genTCGraph is a layered DAG with out-degree two for the transitive
// closure relation output (Theorem 3(2)).
func genTCGraph(rng *rand.Rand) *DBInput {
	ids := names(rng, tcLayers*tcWidth)
	var facts []string
	for l := 0; l+1 < tcLayers; l++ {
		for j := 0; j < tcWidth; j++ {
			for _, k := range rng.Perm(tcWidth)[:2] {
				facts = append(facts, fact("E", ids[l*tcWidth+j], ids[(l+1)*tcWidth+k]))
			}
		}
	}
	return &DBInput{Name: "tcgraph", Text: dbText(rng, "# seeded layered graph", facts),
		Sizes: map[string]int{"graph_nodes": tcLayers * tcWidth, "graph_edges": len(facts)}}
}

// sizeSummary renders every input's sizes in a stable order.
func (in *Inputs) sizeSummary(dbs []string) string {
	var parts []string
	for _, name := range dbs {
		d := in.DBs[name]
		keys := make([]string, 0, len(d.Sizes))
		for k := range d.Sizes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s.%s=%d", name, k, d.Sizes[k]))
		}
	}
	return strings.Join(parts, " ")
}

// Spec texts. τ1 and τ3 take the seeded constants; the rest are fixed
// by the paper's constructions.

func tau1Spec(c regConsts) string {
	return `# τ1: the recursive prerequisite hierarchy of one department.
schema course/3, prereq/2
transducer tau1 root db start q0
tag course/2, prereq/1, cno/1, title/1, text/1

rule q0 db -> (q, course, [cno,title;] exists dept . course(cno,title,dept) & dept='` + c.dept + `')
rule q course ->
  (q, cno,    [cno;]   exists title . Reg(cno,title)),
  (q, title,  [title;] exists cno . Reg(cno,title)),
  (q, prereq, [cno;]   exists title . Reg(cno,title))
rule q prereq -> (q, course, [c,t;] exists c2,d . Reg(c2) & prereq(c2,c) & course(c,t,d))
rule q cno -> (q, text, [c;] Reg(c))
rule q title -> (q, text, [c;] Reg(c))
rule q text -> .
`
}

const tau2vSpec = `# τ2v: courses grouped under virtual department nodes.
schema course/3, prereq/2
transducer tau2v root db start q0
tag dept/1, course/2, title/1, text/1
virtual dept

rule q0 db -> (qd, dept, [d;] exists c,t . course(c,t,d))
rule qd dept -> (qc, course, [c,t;] exists d . Reg(d) & course(c,t,d))
rule qc course -> (qt, title, [t;] exists c . Reg(c,t))
rule qt title -> (q, text, [x;] Reg(x))
rule q text -> .
`

func tau3Spec(c regConsts) string {
	return `# τ3: courses without an immediate prerequisite of one title.
schema course/3, prereq/2
transducer tau3 root db start q0
tag course/2, cno/1, title/1, text/1

rule q0 db -> (q, course, [cno,title;]
  (exists dept . course(cno,title,dept)) &
  !(exists c2,t2,d2 . prereq(cno,c2) & course(c2,t2,d2) & t2='` + c.dbTitle + `'))
rule q course ->
  (q, cno,   [cno;]   exists title . Reg(cno,title)),
  (q, title, [title;] exists cno . Reg(cno,title))
rule q cno -> (q, text, [c;] Reg(c))
rule q title -> (q, text, [c;] Reg(c))
rule q text -> .
`
}

const unfoldSpec = `# Proposition 1(3): unfold a graph into a tree of a-nodes.
schema R/2
transducer unfold root r start q0
tag a/1

rule q0 r -> (q, a, [x;] exists y . R(x,y))
rule q a -> (q, a, [x;] exists y . Reg(y) & R(y,x))
`

const counterSpec = `# Proposition 1(4): a binary counter in a relation register.
schema counter/3, add/5, next/2
transducer counter root r start q0
tag a/3, a2/3

rule q0 r ->
  (q,  a,  [;k,d,c] counter(k,d,c)),
  (q2, a2, [;k,d,c] counter(k,d,c))
rule q a ->
  (q,  a,  [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c)),
  (q2, a2, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c))
rule q2 a2 ->
  (q,  a,  [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c)),
  (q2, a2, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c))
`

const tcSpec = `# Theorem 3(2): transitive closure as the relation on label ans.
schema E/2
transducer tc root r start q0
tag ans/2

rule q0 r -> (q, ans, [x,y;] E(x,y))
rule q ans -> (q, ans, [x,z;] exists y . Reg(x,y) & E(y,z))
`
