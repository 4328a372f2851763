package testutil

import (
	"bytes"
	"testing"

	"ptx/internal/parser"
	"ptx/internal/pt"
)

// Golden runs spec over db directly (no server) and renders the bytes a
// publish must reproduce: the XML, or with canonical the canonical form
// and the newline the servers end it with.
func Golden(t testing.TB, spec, db string, canonical bool) []byte {
	t.Helper()
	tr, err := parser.ParseTransducer(spec)
	if err != nil {
		t.Fatalf("parsing golden spec: %v", err)
	}
	inst, err := parser.ParseInstance(db, tr.Schema)
	if err != nil {
		t.Fatalf("parsing golden db: %v", err)
	}
	res, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	var buf bytes.Buffer
	if !canonical {
		err = res.Xi.WriteXMLVirtual(&buf, tr.Virtual)
	} else if err = res.Xi.WriteCanonicalVirtual(&buf, tr.Virtual); err == nil {
		buf.WriteByte('\n')
	}
	if err != nil {
		t.Fatalf("golden render: %v", err)
	}
	return buf.Bytes()
}
