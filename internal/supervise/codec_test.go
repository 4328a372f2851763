package supervise_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"ptx/internal/families"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/supervise"
)

// committedCheckpoint is a ptx-checkpoint 3 file written by the encoder
// of the string-keyed ancestor lists, before ancestors became
// configurations in memory: τ1 over a 4-course prerequisite cycle,
// interrupted after 73 of 101 steps, two steps before a node whose
// configuration repeats one of its ancestors' must stop.
const committedCheckpoint = "testdata/tau1-cycle4-k73.ckpt"

// withSum closes a checkpoint payload with its checksum and end lines.
func withSum(payload []byte) []byte {
	h := sha256.Sum256(payload)
	return fmt.Appendf(bytes.Clone(payload), "sum %s\nend\n", hex.EncodeToString(h[:]))
}

// payloadOf strips the checksum and end lines off an encoded checkpoint.
func payloadOf(t testing.TB, data []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(data, []byte("\nsum "))
	if i < 0 {
		t.Fatal("checkpoint has no sum line")
	}
	return data[:i+1]
}

// TestCommittedCheckpointResumes: a checkpoint file from before the
// change decodes, re-encodes byte for byte, and resumes to the
// uninterrupted run's tree, stops included.
func TestCommittedCheckpointResumes(t *testing.T) {
	data, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := supervise.DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := snap.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("re-encoding changed the file:\n%s\nwant:\n%s", again.Bytes(), data)
	}
	tr, inst := registrar.Tau1(), registrar.CycleInstance(4)
	golden, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := supervise.Resume(context.Background(), tr, inst, snap, supervise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, tr, res), canonical(t, tr, golden); got != want {
		t.Fatalf("resumed tree differs from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if res.Stats.Nodes != golden.Stats.Nodes || res.Stats.StopsApplied != golden.Stats.StopsApplied {
		t.Fatalf("resumed stats %+v, want nodes %d and stops %d", res.Stats, golden.Stats.Nodes, golden.Stats.StopsApplied)
	}
}

// TestDecodeRejectsStrayAncestor: every ancestor key of a pending entry
// must name a node on the entry's root path. A key naming a node on
// another branch, or no node at all, is a *SnapshotError, checksum or
// not.
func TestDecodeRejectsStrayAncestor(t *testing.T) {
	data, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := supervise.DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The first entry is a child of the root; the last is deep on
	// another branch, below ancestors whose tags are on neither node of
	// the first entry's root path.
	first, last := snap.Pending[0], snap.Pending[len(snap.Pending)-1]
	if first.Depth != 2 || len(first.Ancestors) != 1 || last.Depth < 4 {
		t.Fatalf("fixture changed: entries at depths %d and %d", first.Depth, last.Depth)
	}
	key := func(c pt.Config) string { return c.State + "\x00" + c.Tag + "\x00" + c.Reg.Key() }
	var deep pt.Config
	for _, a := range last.Ancestors {
		if a.Tag != first.Node.Tag && a.Tag != snap.Tree.Root.Tag {
			deep = a
		}
	}
	if deep.Reg == nil {
		t.Fatal("fixture changed: the deep entry has no ancestor off the first entry's path")
	}
	own := strconv.Quote(key(first.Ancestors[0]))
	payload := string(payloadOf(t, data))
	if !strings.Contains(payload, " 1 "+own+"\n") {
		t.Fatalf("fixture changed: no line ends with %s", own)
	}
	for name, stray := range map[string]string{
		"other branch": key(deep),
		"unknown tag":  "q\x00nope\x000|",
		"no separator": "garbage",
	} {
		bad := strings.Replace(payload, " 1 "+own+"\n", " 1 "+strconv.Quote(stray)+"\n", 1)
		_, err := supervise.DecodeSnapshot(bytes.NewReader(withSum([]byte(bad))))
		var se *supervise.SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("%s: decode returned %v, want a *SnapshotError", name, err)
		}
		if !strings.Contains(se.Msg, "root path") {
			t.Fatalf("%s: error %q does not name the root path", name, se.Msg)
		}
	}
}

// TestDecodeRejectsUnreachablePending: a pending entry whose node hangs
// under no path from the root is a *SnapshotError.
func TestDecodeRejectsUnreachablePending(t *testing.T) {
	payload := "ptx-checkpoint 3\ntransducer \"x\" fp\ninstance fp\nstats 0 0 0 0\n" +
		"nodes 2\nn \"a\" \"q\" \"\" 0 0 0\nn \"db\" \"q0\" \"\" 0 0 0\npending 1\np 0 2 0\n"
	_, err := supervise.DecodeSnapshot(bytes.NewReader(withSum([]byte(payload))))
	var se *supervise.SnapshotError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "not reachable") {
		t.Fatalf("decode returned %v, want a *SnapshotError naming reachability", err)
	}
}

// FuzzDecodeSnapshot mutates a checkpoint's payload and recomputes its
// checksum, so mutations reach the structural checks and the ancestor
// matching. The decoder must never panic, must fail only with a
// *SnapshotError, and encode∘decode must be a fixed point on whatever
// decodes.
func FuzzDecodeSnapshot(f *testing.F) {
	data, err := os.ReadFile(committedCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payloadOf(f, data))
	for _, w := range []struct {
		tr    *pt.Transducer
		inst  *relation.Instance
		steps int
	}{
		{registrar.Tau1(), registrar.SampleInstance(), 3},
		{registrar.Tau3(), registrar.SampleInstance(), 10},
		{families.UnfoldTransducer(), families.DiamondChain(3), 7},
		{families.CounterTransducer(), families.CounterInstance(2), 12},
	} {
		sr, err := w.tr.NewStepRun(context.Background(), w.inst, pt.Options{})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < w.steps && !sr.Done(); i++ {
			if _, err := sr.Step(); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := supervise.Capture(w.tr, w.inst, sr).Encode(&buf); err != nil {
			f.Fatal(err)
		}
		sr.Close()
		f.Add(payloadOf(f, buf.Bytes()))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := supervise.DecodeSnapshot(bytes.NewReader(withSum(payload)))
		if err != nil {
			var se *supervise.SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("decode failed with %T, not a *SnapshotError: %v", err, err)
			}
			return
		}
		var a, b bytes.Buffer
		if err := snap.Encode(&a); err != nil {
			t.Fatalf("a decoded snapshot does not encode: %v", err)
		}
		again, err := supervise.DecodeSnapshot(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded snapshot does not decode: %v", err)
		}
		if err := again.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point:\n%s\nthen:\n%s", a.Bytes(), b.Bytes())
		}
	})
}
