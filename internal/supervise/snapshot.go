// Snapshot is the serializable checkpoint of an interrupted run.
//
// The paper's determinism argument (Proposition 1(1)) is what makes a
// small checkpoint sufficient: the children generated at a node depend
// only on its (state, tag, register) configuration and the fixed
// database, so the partial tree plus the frontier of unexpanded
// configurations is a complete description of the remaining work — no
// evaluator state, cache contents or traversal position needs saving.
// Resuming from a snapshot therefore reproduces the uninterrupted run's
// output byte for byte (the invariant the supervise and chaos tests pin).
//
// The format is a line-based text format, versioned, with every
// variable-width field strconv.Quote-d. Nodes are written in
// post-order, children before parents, referencing each other by index;
// a reference to a not-yet-defined node is a decode error, which makes
// cycles structurally unrepresentable, and so is a second reference to
// the same node, so a decoded tree is always a tree.
package supervise

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/value"
	"ptx/internal/xmltree"
)

// snapshotMagic identifies the format; the trailing integer is the
// version and changes on any incompatible layout change. Version 2
// added the payload checksum line ("sum <sha256>") before the end
// marker, so truncation and bit flips are detected even when they land
// inside quoted data the structural checks cannot see. Version 3
// changed the byte order of relation.Key, which the pending
// configurations' ancestor keys embed: a version-2 file would resume
// with ancestor keys in the old order, and the stop condition could
// silently miss a repeated configuration.
const snapshotMagic = "ptx-checkpoint 3"

// SnapshotError is the typed validation failure of the checkpoint
// codec: the file is not a well-formed, internally consistent snapshot
// (truncated, bit-flipped, structurally invalid, or checksum-mismatched).
// It is the contract corruption tests pin: a damaged checkpoint NEVER
// panics and NEVER decodes silently — it surfaces as this type so
// callers can fall back to a fresh run instead of resuming from garbage.
type SnapshotError struct {
	Msg string
}

func (e *SnapshotError) Error() string { return "supervise: corrupt snapshot: " + e.Msg }

// configKey is the checkpoint file's spelling of a configuration: its
// state, tag and register key, NUL-separated. relation.Key is injective
// and order-insensitive (registers are sets), so two configurations
// share a key exactly when they are the same. States are identifiers,
// free of NUL bytes, so a key's state ends at its first NUL.
func configKey(c pt.Config) string { return c.State + "\x00" + c.Tag + "\x00" + c.Reg.Key() }

// snapErrf builds a *SnapshotError.
func snapErrf(format string, args ...any) *SnapshotError {
	return &SnapshotError{Msg: fmt.Sprintf(format, args...)}
}

// Snapshot captures everything needed to resume a run: the partial
// register-carrying tree, the frontier of pending configurations (which
// point into that tree), the counter values accumulated so far, and
// fingerprints binding the checkpoint to one (transducer, instance)
// pair so a snapshot cannot silently resume against the wrong inputs.
type Snapshot struct {
	// TransducerName is informational (error messages); TransducerFP and
	// InstanceFP are sha256 hex fingerprints of the canonical String()
	// renderings, checked by Verify before any resume.
	TransducerName string
	TransducerFP   string
	InstanceFP     string

	// Stats carries the counters of the interrupted run so a resumed
	// run's final statistics match the uninterrupted run's.
	Stats pt.Stats

	// Tree is the partial output tree; frontier nodes still carry their
	// State and every node carries its register.
	Tree *xmltree.Tree

	// Pending is the frontier in StepRun.Pending order (bottom of the
	// stack first); Node fields point into Tree.
	Pending []pt.PendingConfig
}

// Fingerprint returns the sha256 hex digest of a canonical rendering;
// used to bind snapshots to their transducer and instance.
func Fingerprint(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// Capture builds a Snapshot from a live stepwise run. The tree is
// deep-copied so the snapshot stays valid while the run keeps
// mutating, which is what periodic checkpoints need.
func Capture(tr *pt.Transducer, inst *relation.Instance, sr *pt.StepRun) *Snapshot {
	return (&capturer{tr: tr, inst: inst}).capture(sr)
}

// capturer takes the snapshots of one run. It fingerprints the
// transducer and the instance at its first capture and reuses both, as
// neither changes during a run.
type capturer struct {
	tr       *pt.Transducer
	inst     *relation.Instance
	tfp, ifp string
}

func (c *capturer) capture(sr *pt.StepRun) *Snapshot {
	if c.tfp == "" {
		c.tfp, c.ifp = Fingerprint(c.tr.String()), Fingerprint(c.inst.String())
	}
	tree, remap := sr.Tree().CloneShared()
	pending := sr.Pending()
	for i := range pending {
		pending[i].Node = remap[pending[i].Node]
	}
	return &Snapshot{
		TransducerName: c.tr.Name,
		TransducerFP:   c.tfp,
		InstanceFP:     c.ifp,
		Stats:          sr.StatsSoFar(),
		Tree:           tree,
		Pending:        pending,
	}
}

// Verify checks that the snapshot was taken for exactly this transducer
// and instance. Resuming against different inputs would not be detected
// at runtime — determinism guarantees agreement only for identical
// inputs — so this is the safety check in front of every Resume.
func (s *Snapshot) Verify(tr *pt.Transducer, inst *relation.Instance) error {
	if fp := Fingerprint(tr.String()); fp != s.TransducerFP {
		return fmt.Errorf("supervise: snapshot was taken for transducer %q (fingerprint %.12s…), not this one (%.12s…)",
			s.TransducerName, s.TransducerFP, fp)
	}
	if fp := Fingerprint(inst.String()); fp != s.InstanceFP {
		return fmt.Errorf("supervise: snapshot instance fingerprint %.12s… does not match this instance (%.12s…)",
			s.InstanceFP, fp)
	}
	return nil
}

// Encode writes the snapshot in the versioned text format.
func (s *Snapshot) Encode(w io.Writer) error {
	// The payload goes through bw into the checksum too; the trailing
	// "sum" line, written to raw only, commits to exactly those bytes.
	raw := bufio.NewWriter(w)
	h := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(raw, h))
	fmt.Fprintln(bw, snapshotMagic)
	fmt.Fprintf(bw, "transducer %s %s\n", strconv.Quote(s.TransducerName), s.TransducerFP)
	fmt.Fprintf(bw, "instance %s\n", s.InstanceFP)
	fmt.Fprintf(bw, "stats %d %d %d %d\n",
		s.Stats.Nodes, s.Stats.QueriesRun, s.Stats.StopsApplied, s.Stats.MaxDepth)

	ids, order, err := postOrder(s.Tree.Root)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "nodes %d\n", len(order))
	for _, n := range order {
		bw.WriteString("n ")
		bw.WriteString(strconv.Quote(n.Tag))
		bw.WriteByte(' ')
		bw.WriteString(strconv.Quote(n.State))
		bw.WriteByte(' ')
		bw.WriteString(strconv.Quote(n.Text))
		if n.Reg == nil {
			bw.WriteString(" -1 0")
		} else {
			tuples := n.Reg.Tuples()
			fmt.Fprintf(bw, " %d %d", n.Reg.Arity(), len(tuples))
			for _, t := range tuples {
				for _, v := range t {
					bw.WriteByte(' ')
					bw.WriteString(strconv.Quote(string(v)))
				}
			}
		}
		fmt.Fprintf(bw, " %d", len(n.Children))
		for _, c := range n.Children {
			fmt.Fprintf(bw, " %d", ids[c])
		}
		bw.WriteByte('\n')
	}

	fmt.Fprintf(bw, "pending %d\n", len(s.Pending))
	var keys []string
	for _, p := range s.Pending {
		id, ok := ids[p.Node]
		if !ok {
			return fmt.Errorf("supervise: pending node (%s,%s) is not in the snapshot tree", p.Node.State, p.Node.Tag)
		}
		fmt.Fprintf(bw, "p %d %d %d", id, p.Depth, len(p.Ancestors))
		keys = keys[:0]
		for _, a := range p.Ancestors {
			keys = append(keys, configKey(a))
		}
		sort.Strings(keys)
		for _, k := range keys {
			bw.WriteByte(' ')
			bw.WriteString(strconv.Quote(k))
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(raw, "sum %s\n", hex.EncodeToString(h.Sum(nil)))
	fmt.Fprintln(raw, "end")
	return raw.Flush()
}

// postOrder assigns ids in children-before-parents order, iteratively.
func postOrder(root *xmltree.Node) (map[*xmltree.Node]int, []*xmltree.Node, error) {
	if root == nil {
		return nil, nil, fmt.Errorf("supervise: snapshot has nil tree root")
	}
	ids := make(map[*xmltree.Node]int)
	var order []*xmltree.Node
	type frame struct {
		n *xmltree.Node
		i int
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.n.Children) {
			c := f.n.Children[f.i]
			f.i++
			if c == nil {
				return nil, nil, fmt.Errorf("supervise: nil child under %q", f.n.Tag)
			}
			stack = append(stack, frame{c, 0})
			continue
		}
		ids[f.n] = len(order)
		order = append(order, f.n)
		stack = stack[:len(stack)-1]
	}
	return ids, order, nil
}

// DecodeSnapshot reads and validates a snapshot. Structural guarantees
// on success: node references are acyclic by construction, no node has
// two parents, every pending entry points at a reachable, unfinalized,
// register-carrying node of the decoded tree, each of its ancestor keys
// names a node on its root path, the counters are non-negative, and the
// payload checksum matches — so truncation or bit flips anywhere in
// the file surface as a typed *SnapshotError, never as a panic and
// never as a silently-wrong resume. Callers still must Verify against
// their transducer and instance.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	h := sha256.New()
	// line reads one payload line and feeds it into the running
	// checksum; the trailing sum/end lines are read with rawLine.
	rawLine := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", snapErrf("reading snapshot: %v", err)
			}
			return "", snapErrf("snapshot truncated")
		}
		return sc.Text(), nil
	}
	line := func() (string, error) {
		l, err := rawLine()
		if err != nil {
			return "", err
		}
		_, _ = io.WriteString(h, l)
		_, _ = h.Write([]byte{'\n'})
		return l, nil
	}
	// field reads the next payload line, which must start with word.
	field := func(word string) (*tok, error) {
		l, err := line()
		if err != nil {
			return nil, err
		}
		tk := newTok(l)
		return tk, tk.literal(word)
	}

	l, err := line()
	if err != nil {
		return nil, err
	}
	if l != snapshotMagic {
		return nil, snapErrf("not a checkpoint file (got %q, want %q)", l, snapshotMagic)
	}
	s := &Snapshot{}

	tk, err := field("transducer")
	if err != nil {
		return nil, err
	}
	if s.TransducerName, err = tk.quoted(); err != nil {
		return nil, err
	}
	if s.TransducerFP, err = tk.bare(); err != nil {
		return nil, err
	}

	if tk, err = field("instance"); err != nil {
		return nil, err
	}
	if s.InstanceFP, err = tk.bare(); err != nil {
		return nil, err
	}

	if tk, err = field("stats"); err != nil {
		return nil, err
	}
	for _, dst := range []*int{&s.Stats.Nodes, &s.Stats.QueriesRun, &s.Stats.StopsApplied, &s.Stats.MaxDepth} {
		if *dst, err = tk.integer(); err != nil {
			return nil, err
		}
		if *dst < 0 {
			return nil, snapErrf("negative counter in snapshot stats")
		}
	}

	if tk, err = field("nodes"); err != nil {
		return nil, err
	}
	nNodes, err := tk.integer()
	if err != nil {
		return nil, err
	}
	if nNodes < 1 {
		return nil, snapErrf("snapshot has %d nodes, want at least the root", nNodes)
	}
	// Preallocation is capped: a bit-flipped count must fail on token
	// exhaustion, not by provoking a huge up-front allocation.
	nodes := make([]*xmltree.Node, 0, min(nNodes, 4096))
	parented := make([]bool, 0, min(nNodes, 4096))
	for i := 0; i < nNodes; i++ {
		if l, err = line(); err != nil {
			return nil, err
		}
		n, err := decodeNode(l, i, nodes, parented)
		if err != nil {
			return nil, snapErrf("%v", err)
		}
		nodes = append(nodes, n)
		parented = append(parented, false)
	}
	// Post-order emission puts the root last.
	s.Tree = &xmltree.Tree{Root: nodes[nNodes-1]}

	if tk, err = field("pending"); err != nil {
		return nil, err
	}
	nPend, err := tk.integer()
	if err != nil {
		return nil, err
	}
	if nPend < 0 {
		return nil, snapErrf("negative pending count")
	}
	s.Pending = make([]pt.PendingConfig, 0, min(nPend, 4096))
	keys := make([][]string, 0, min(nPend, 4096))
	for i := 0; i < nPend; i++ {
		if l, err = line(); err != nil {
			return nil, err
		}
		p, k, err := decodePending(l, i, nodes)
		if err != nil {
			return nil, snapErrf("%v", err)
		}
		s.Pending, keys = append(s.Pending, p), append(keys, k)
	}
	if err := resolveAncestors(s.Tree.Root, s.Pending, keys); err != nil {
		return nil, err
	}

	// Payload complete: the next line commits to its checksum.
	want := hex.EncodeToString(h.Sum(nil))
	if l, err = rawLine(); err != nil {
		return nil, err
	}
	tk = newTok(l)
	if err := tk.literal("sum"); err != nil {
		return nil, snapErrf("missing checksum line: %v", err)
	}
	got, err := tk.bare()
	if err != nil {
		return nil, snapErrf("missing checksum: %v", err)
	}
	if got != want {
		return nil, snapErrf("payload checksum mismatch (file says %.12s…, content hashes to %.12s…)", got, want)
	}
	if l, err = rawLine(); err != nil {
		return nil, err
	}
	if l != "end" {
		return nil, snapErrf("snapshot missing end marker (got %q)", l)
	}
	return s, nil
}

// decodeNode decodes node i, whose children must be among defined and
// not yet claimed in parented, which it updates.
func decodeNode(l string, i int, defined []*xmltree.Node, parented []bool) (*xmltree.Node, error) {
	tk := newTok(l)
	if err := tk.literal("n"); err != nil {
		return nil, fmt.Errorf("node %d: %w", i, err)
	}
	n := &xmltree.Node{}
	var err error
	if n.Tag, err = tk.quoted(); err != nil {
		return nil, fmt.Errorf("node %d tag: %w", i, err)
	}
	if n.State, err = tk.quoted(); err != nil {
		return nil, fmt.Errorf("node %d state: %w", i, err)
	}
	if n.Text, err = tk.quoted(); err != nil {
		return nil, fmt.Errorf("node %d text: %w", i, err)
	}
	arity, err := tk.integer()
	if err != nil {
		return nil, fmt.Errorf("node %d arity: %w", i, err)
	}
	nTuples, err := tk.integer()
	if err != nil {
		return nil, fmt.Errorf("node %d tuple count: %w", i, err)
	}
	if arity >= 0 {
		if nTuples < 0 {
			return nil, fmt.Errorf("node %d: negative tuple count", i)
		}
		// Every stored value is a quoted token of at least two bytes plus
		// its separator, so a register claiming more values than the line
		// could physically hold is corrupt — rejected before any
		// per-tuple allocation a flipped count could inflate.
		if nTuples > 0 && (arity > len(l) || nTuples > len(l) || 3*arity*nTuples > len(l)) {
			return nil, fmt.Errorf("node %d: register claims %d×%d values, line holds only %d bytes", i, nTuples, arity, len(l))
		}
		n.Reg = relation.New(arity)
		for t := 0; t < nTuples; t++ {
			tup := make(value.Tuple, arity)
			for c := 0; c < arity; c++ {
				v, err := tk.quoted()
				if err != nil {
					return nil, fmt.Errorf("node %d tuple %d: %w", i, t, err)
				}
				tup[c] = value.V(v)
			}
			n.Reg.Add(tup)
		}
	}
	nKids, err := tk.integer()
	if err != nil {
		return nil, fmt.Errorf("node %d child count: %w", i, err)
	}
	for k := 0; k < nKids; k++ {
		id, err := tk.integer()
		if err != nil {
			return nil, fmt.Errorf("node %d child %d: %w", i, k, err)
		}
		// Children must already be defined: this is what rules out
		// cycles and forward references in one check.
		if id < 0 || id >= len(defined) {
			return nil, fmt.Errorf("node %d references undefined node %d (only %d defined so far)", i, id, len(defined))
		}
		// A second parent would make the tree a DAG, and stepping a
		// pending node inside it would change every occurrence at once.
		if parented[id] {
			return nil, fmt.Errorf("node %d: node %d already has a parent", i, id)
		}
		parented[id] = true
		n.Children = append(n.Children, defined[id])
	}
	if err := tk.end(); err != nil {
		return nil, fmt.Errorf("node %d: %w", i, err)
	}
	return n, nil
}

// decodePending decodes pending entry i and its ancestor keys, which
// resolveAncestors turns into configurations.
func decodePending(l string, i int, nodes []*xmltree.Node) (p pt.PendingConfig, keys []string, err error) {
	tk := newTok(l)
	if err := tk.literal("p"); err != nil {
		return p, nil, fmt.Errorf("pending %d: %w", i, err)
	}
	id, err := tk.integer()
	if err != nil {
		return p, nil, fmt.Errorf("pending %d node id: %w", i, err)
	}
	if id < 0 || id >= len(nodes) {
		return p, nil, fmt.Errorf("pending %d references undefined node %d", i, id)
	}
	p.Node = nodes[id]
	if p.Node.State == "" {
		return p, nil, fmt.Errorf("pending %d: node %d (%s) is already finalized", i, id, p.Node.Tag)
	}
	if p.Node.Reg == nil {
		return p, nil, fmt.Errorf("pending %d: node %d has no register", i, id)
	}
	if p.Depth, err = tk.integer(); err != nil {
		return p, nil, fmt.Errorf("pending %d depth: %w", i, err)
	}
	if p.Depth < 1 {
		return p, nil, fmt.Errorf("pending %d: depth %d < 1", i, p.Depth)
	}
	nAnc, err := tk.integer()
	if err != nil {
		return p, nil, fmt.Errorf("pending %d ancestor count: %w", i, err)
	}
	if nAnc < 0 {
		return p, nil, fmt.Errorf("pending %d: negative ancestor count", i)
	}
	for a := 0; a < nAnc; a++ {
		key, err := tk.quoted()
		if err != nil {
			return p, nil, fmt.Errorf("pending %d ancestor %d: %w", i, a, err)
		}
		keys = append(keys, key)
	}
	if err := tk.end(); err != nil {
		return p, nil, fmt.Errorf("pending %d: %w", i, err)
	}
	return p, keys, nil
}

// resolveAncestors checks that every pending node is reachable and turns
// each entry's ancestor keys into configurations: a key must name a node
// on the entry's root path (itself included), which gives it its tag and
// register. One walk keeps the path's nodes by their key with an empty
// state, so decoding stays linear in the file's size.
func resolveAncestors(root *xmltree.Node, pending []pt.PendingConfig, keys [][]string) error {
	at := map[*xmltree.Node][]int{}
	for i, p := range pending {
		at[p.Node] = append(at[p.Node], i)
	}
	path := map[string]*xmltree.Node{}
	type frame struct {
		n, prev *xmltree.Node // prev: what n's key named above n
		key     string
		next    int
	}
	// The walk starts from a frame whose one child is the root.
	stack := []frame{{n: &xmltree.Node{Children: []*xmltree.Node{root}}}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next == len(f.n.Children) {
			if path[f.key] = f.prev; f.prev == nil {
				delete(path, f.key)
			}
			stack = stack[:len(stack)-1]
			continue
		}
		f.next++
		c := frame{n: f.n.Children[f.next-1]}
		if n := c.n; n.Reg != nil {
			c.key = configKey(pt.Config{Tag: n.Tag, Reg: n.Reg})
			c.prev, path[c.key] = path[c.key], n
		}
		stack = append(stack, c)
		for _, i := range at[c.n] {
			for a, k := range keys[i] {
				cut := max(strings.IndexByte(k, 0), 0) // where the state ends
				o, ok := path[k[cut:]]
				if !ok {
					return snapErrf("pending %d ancestor %d (%q) names no node on its root path", i, a, k)
				}
				pending[i].Ancestors = append(pending[i].Ancestors, pt.NewConfig(k[:cut], o.Tag, o.Reg))
			}
		}
		delete(at, c.n)
	}
	if len(at) > 0 {
		return snapErrf("%d pending nodes are not reachable from the root", len(at))
	}
	return nil
}

// tok consumes one space-separated line of bare and Quote-d tokens.
type tok struct{ rest string }

func newTok(l string) *tok { return &tok{rest: l} }

func (t *tok) skip() { t.rest = strings.TrimLeft(t.rest, " ") }

func (t *tok) bare() (string, error) {
	t.skip()
	if t.rest == "" {
		return "", snapErrf("unexpected end of line")
	}
	if i := strings.IndexByte(t.rest, ' '); i >= 0 {
		w := t.rest[:i]
		t.rest = t.rest[i:]
		return w, nil
	}
	w := t.rest
	t.rest = ""
	return w, nil
}

func (t *tok) quoted() (string, error) {
	t.skip()
	q, err := strconv.QuotedPrefix(t.rest)
	if err != nil {
		return "", snapErrf("malformed quoted token at %q", t.rest)
	}
	t.rest = t.rest[len(q):]
	s, err := strconv.Unquote(q)
	if err != nil {
		return "", snapErrf("malformed quoted token %q", q)
	}
	return s, nil
}

func (t *tok) integer() (int, error) {
	w, err := t.bare()
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(w)
	if err != nil {
		return 0, snapErrf("bad integer %q", w)
	}
	return n, nil
}

func (t *tok) literal(want string) error {
	w, err := t.bare()
	if err != nil {
		return err
	}
	if w != want {
		return snapErrf("got token %q, want %q", w, want)
	}
	return nil
}

func (t *tok) end() error {
	t.skip()
	if t.rest != "" {
		return snapErrf("trailing garbage %q", t.rest)
	}
	return nil
}
