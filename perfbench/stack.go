package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"

	"ptx/internal/cluster"
	"ptx/internal/serve"
	"ptx/internal/wal"
)

// node is one in-process serve.Server over loopback HTTP, optionally
// with its own write-ahead log (fsync on every append: the production
// default of wal.Options).
type node struct {
	id  string
	reg *serve.Registry
	srv *serve.Server
	ts  *httptest.Server
	log *wal.Log
	dir string
}

// newNode registers the named specs and databases from their generated
// texts and starts a server with default configuration. A non-empty
// walDir attaches a fresh WAL there; the node owns the directory and
// removes it on close, or at once when newNode fails.
func newNode(in *Inputs, id string, specs, dbs []string, walDir string) (n *node, err error) {
	n = &node{id: id, reg: serve.NewRegistry(), dir: walDir}
	defer func() {
		if err != nil {
			n.close()
			n = nil
		}
	}()
	for _, s := range specs {
		if err := n.reg.RegisterSpec(s, in.Specs[s]); err != nil {
			return nil, err
		}
	}
	for _, d := range dbs {
		if err := n.reg.RegisterDB(d, in.DBs[d].Text); err != nil {
			return nil, err
		}
	}
	if walDir != "" {
		if n.log, err = wal.Open(walDir, wal.Options{}); err != nil {
			return nil, err
		}
		n.reg.AttachWAL(n.log)
	}
	if n.srv, err = serve.New(serve.Config{Registry: n.reg, NodeID: id}); err != nil {
		return nil, err
	}
	n.ts = httptest.NewServer(n.srv.Handler())
	return n, nil
}

func (n *node) close() {
	if n.ts != nil {
		n.ts.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	if n.log != nil {
		_ = n.log.Close()
	}
	if n.dir != "" {
		_ = os.RemoveAll(n.dir)
	}
}

// dirBytes is the total size of the files directly under dir.
func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// tier is the serving system one workload drives: a single node, or
// three nodes behind a coordinator. url is where clients send.
type tier struct {
	nodes []*node
	coord *cluster.Coordinator
	cts   *httptest.Server
	url   string
}

func newSingle(in *Inputs, specs, dbs []string, walDir string) (*tier, error) {
	n, err := newNode(in, "solo", specs, dbs, walDir)
	if err != nil {
		return nil, err
	}
	return &tier{nodes: []*node{n}, url: n.ts.URL}, nil
}

// newCluster starts three WAL-backed nodes and a coordinator with
// default configuration (probing and hedging at their defaults).
func newCluster(in *Inputs, specs, dbs []string, workdir string) (*tier, error) {
	t := &tier{}
	for i := 1; i <= 3; i++ {
		dir, err := os.MkdirTemp(workdir, fmt.Sprintf("node%d-wal-", i))
		if err != nil {
			t.close()
			return nil, err
		}
		n, err := newNode(in, fmt.Sprintf("node-%d", i), specs, dbs, dir)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	t.coord = cluster.New(cluster.Config{})
	for _, n := range t.nodes {
		if err := t.coord.Join(n.id, n.ts.URL); err != nil {
			t.close()
			return nil, err
		}
	}
	t.cts = httptest.NewServer(t.coord.Handler())
	t.url = t.cts.URL
	return t, nil
}

func (t *tier) close() {
	if t.cts != nil {
		t.cts.Close()
	}
	if t.coord != nil {
		t.coord.Close()
	}
	for _, n := range t.nodes {
		n.close()
	}
}

// nodeURL maps a node id (the X-Ptserve-Node header) to its URL.
func (t *tier) nodeURL(id string) string {
	for _, n := range t.nodes {
		if n.id == id {
			return n.ts.URL
		}
	}
	return ""
}

// serveMetrics sums Server.Metrics over the tier's nodes.
func (t *tier) serveMetrics() serve.Metrics {
	var m serve.Metrics
	for _, n := range t.nodes {
		x := n.srv.Metrics()
		m.Deduped += x.Deduped
		m.Shed += x.Shed
		m.Appended += x.Appended
		m.Fsyncs += x.Fsyncs
		m.Replicated += x.Replicated
	}
	return m
}

func (t *tier) walBytes() int64 {
	var b int64
	for _, n := range t.nodes {
		if n.dir != "" {
			b += dirBytes(n.dir)
		}
	}
	return b
}

// newClient is one closed-loop client: one connection, no compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func post(c *http.Client, u string, body []byte) (int, http.Header, []byte, error) {
	resp, err := c.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

func publishBody(spec, db string) []byte {
	return []byte(fmt.Sprintf(`{"spec":%q,"db":%q}`, spec, db))
}

func mutateBody(spec, db string, ops []mutateOp) []byte {
	b, _ := json.Marshal(struct {
		Spec string     `json:"spec"`
		DB   string     `json:"db"`
		Ops  []mutateOp `json:"ops"`
	}{spec, db, ops})
	return b
}

// mutateReply is the part of the /mutate response the benchmark reads.
type mutateReply struct {
	Seq   uint64 `json:"seq"`
	Views []struct {
		Spec   string `json:"spec"`
		Error  string `json:"error"`
		Report *struct {
			FullRebuild bool `json:"full_rebuild"`
			QueriesRun  int  `json:"queries_run"`
		} `json:"report"`
	} `json:"views"`
}

// watch creates the live view for (spec, db) with one non-blocking
// long-poll.
func watch(c *http.Client, base, spec, db string) error {
	q := url.Values{"spec": {spec}, "db": {db}, "after": {"0"}}
	resp, err := c.Get(base + "/watch?" + q.Encode())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch %s/%s: status %d", spec, db, resp.StatusCode)
	}
	return nil
}
