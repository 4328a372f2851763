// Command ptserve is the hardened publishing server: it loads a
// directory of transducer specs (*.pt) and database sources (*.db) into
// a registry and serves publish requests over HTTP as streamed XML.
//
// Usage:
//
//	ptserve -specs DIR [-addr :8080] [-workers N] [-queue N]
//	        [-max-body BYTES] [-timeout D] [-max-timeout D]
//	        [-drain D] [-allow-inject]
//	        [-node-id ID] [-store-dir DIR] [-join URL] [-advertise URL]
//	        [-chaos SPEC]
//
// Endpoints:
//
//	POST /publish  {"spec":"tau1","db":"registrar", ...} → XML stream
//	POST /mutate   {"spec":…,"db":…,"ops":[{"op":"insert","rel":"course",
//	               "tuple":["CS999","StormCourse","CS"]}, …]} — applies the
//	               delta to the registered database and incrementally
//	               repairs every live view over it; later publishes of
//	               that db (any spec) see post-delta bytes, never torn ones
//	GET  /watch    ?spec=…&db=…[&after=N][&wait_ms=D] — long-polls the
//	               live view's change feed from cursor N (wait capped by
//	               -max-timeout); with Accept: text/event-stream the
//	               response is an SSE stream of change/resync events
//	GET  /healthz  liveness + counters (always 200 while the process runs)
//	GET  /readyz   readiness (503 once draining starts)
//
// The service sheds load instead of queuing it to death: a bounded
// worker pool admits at most -workers concurrent runs and -queue
// waiters; everything beyond that is rejected immediately with HTTP 429
// and a typed JSON error body. SIGTERM/SIGINT triggers a graceful
// drain: admissions stop, in-flight runs get -drain to finish, then
// stragglers are canceled and terminate with typed errors (a run
// routed with a handoff key leaves a resumable checkpoint in the
// -store-dir store for its next owner).
//
// Cluster mode (see cmd/ptcoord): -node-id names this worker, -store-dir
// points every worker at one shared checkpoint-handoff store, and -join
// self-registers with a coordinator at startup (-advertise overrides the
// URL the coordinator should dial back, defaulting to the listen
// address — set it when the node sits behind NAT or a hostname).
//
// -chaos injects deterministic network faults (chaos testing only;
// requires -allow-inject): the spec is a comma-separated key=value list
// — seed=N, latency=D, drop=P, refuse=P, reset=P, corrupt=P,
// truncate=P, slowloris=P, pace=D, partition=a->b — applied to this
// node's inbound listener and its outbound replication client. See
// internal/netchaos for the full fault model.
//
// -store-dir also makes mutations DURABLE (cluster or standalone): a
// write-ahead log under DIR/wal records every accepted delta,
// appended and fsynced before the /mutate ack, and a restart replays
// it — acknowledged deltas survive the process. Startup prints the
// recovery report; inspect a log offline with ptxml -delta DIR/wal.
//
// Exit codes: 0 clean shutdown, 1 error, 2 usage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ptx/internal/netchaos"
	"ptx/internal/serve"
	"ptx/internal/supervise"
	"ptx/internal/wal"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// run is main minus the process plumbing: tests drive it with an
// in-memory signal channel and a captured stdout, and read the actual
// listen address (so -addr :0 works) from the "listening on" line.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("ptserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	specDir := fs.String("specs", "", "directory of *.pt specs and *.db databases (required)")
	workers := fs.Int("workers", 4, "max concurrently executing publish runs")
	queue := fs.Int("queue", 16, "max requests waiting for a worker; beyond this requests are shed with 429")
	maxBody := fs.Int64("max-body", 1<<20, "request body cap in bytes")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request deadline (covers queue time)")
	maxTimeout := fs.Duration("max-timeout", time.Minute, "cap on the per-request deadline a client may ask for (also caps /watch long-poll waits)")
	drain := fs.Duration("drain", 10*time.Second, "how long a SIGTERM drain lets in-flight runs finish before canceling them")
	allowInject := fs.Bool("allow-inject", false, "honor the \"inject\" request field (fault injection; chaos testing only)")
	nodeID := fs.String("node-id", "", "stable cluster identity for this worker (required with -join)")
	storeDir := fs.String("store-dir", "", "shared checkpoint-handoff store directory (cluster mode; all workers point at the same one)")
	join := fs.String("join", "", "coordinator base URL to self-register with at startup")
	advertise := fs.String("advertise", "", "base URL the coordinator dials this node at (default: the listen address)")
	chaos := fs.String("chaos", "", "network fault spec, e.g. seed=7,latency=50ms,reset=0.1 (requires -allow-inject; see internal/netchaos)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specDir == "" {
		fmt.Fprintln(stderr, "usage: ptserve -specs DIR [-addr :8080] [-workers N] [-queue N] [-drain 10s]")
		return 2
	}
	if *join != "" && *nodeID == "" {
		fmt.Fprintln(stderr, "ptserve: -join requires -node-id (the coordinator fences checkpoints by node identity)")
		return 2
	}
	var mesh *netchaos.Mesh
	if *chaos != "" {
		// Fault injection is opt-in twice over: the spec AND the explicit
		// -allow-inject acknowledgement, so a copy-pasted chaos command
		// can never degrade a production node by accident.
		if !*allowInject {
			fmt.Fprintln(stderr, "ptserve: -chaos requires -allow-inject (fault injection is for chaos testing only)")
			return 2
		}
		m, err := netchaos.Parse(*chaos)
		if err != nil {
			fmt.Fprintln(stderr, "ptserve:", err)
			return 2
		}
		mesh = m
	}

	reg := serve.NewRegistry()
	if err := reg.LoadDir(*specDir); err != nil {
		fmt.Fprintln(stderr, "ptserve:", err)
		return 1
	}
	var store supervise.CheckpointStore
	if *storeDir != "" {
		ds, err := supervise.NewDirStore(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "ptserve:", err)
			return 1
		}
		store = ds
		// The durable mutation log lives beside the checkpoint store:
		// every accepted delta is appended+fsynced before its ack, and a
		// restart replays the log here so the first publish already
		// serves post-delta bytes. Recovery is loud about damage — torn
		// tails and bit-flips are healed by truncation but reported.
		wlog, err := wal.Open(filepath.Join(*storeDir, "wal"), wal.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "ptserve:", err)
			return 1
		}
		defer wlog.Close()
		replayed := reg.AttachWAL(wlog)
		rep := wlog.Report()
		fmt.Fprintf(stdout, "ptserve: wal: %d records recovered (%d segments), %d replayed\n",
			rep.Records, rep.Segments, replayed)
		for _, c := range rep.Corruptions {
			fmt.Fprintf(stderr, "ptserve: wal: recovered past corruption: %v\n", c)
		}
	}
	cfg := serve.Config{
		Registry:       reg,
		NodeID:         *nodeID,
		Store:          store,
		Workers:        *workers,
		Queue:          *queue,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		AllowInject:    *allowInject,
	}
	meshName := *nodeID
	if meshName == "" {
		meshName = "node"
	}
	if mesh != nil {
		// Outbound replication pushes cross the chaotic link too — a
		// partition must be able to withhold mutation acks, not just
		// garble publishes.
		cfg.ReplicateClient = &http.Client{
			Transport: mesh.Transport(meshName, nil),
			Timeout:   5 * time.Second,
		}
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ptserve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ptserve:", err)
		return 1
	}
	if mesh != nil {
		ln = mesh.Listener(meshName, ln)
		fmt.Fprintf(stdout, "ptserve: chaos mesh active (%s)\n", *chaos)
	}
	fmt.Fprintf(stdout, "ptserve: listening on %s (specs: %v, dbs: %v)\n",
		ln.Addr(), reg.SpecNames(), reg.DBNames())

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if *join != "" {
		self := *advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		if err := registerWithCoordinator(*join, *nodeID, self); err != nil {
			fmt.Fprintln(stderr, "ptserve: join:", err)
			_ = ln.Close()
			<-serveErr
			return 1
		}
		fmt.Fprintf(stdout, "ptserve: joined %s as %s (%s)\n", *join, *nodeID, self)
	}

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "ptserve:", err)
		return 1
	case sig := <-sigs:
		fmt.Fprintf(stdout, "ptserve: %v received, draining (deadline %v)\n", sig, *drain)
	}

	// Drain protocol: flip readiness and stop admitting (inside Drain),
	// let in-flight runs finish within the deadline, cancel stragglers,
	// then close the listener and idle connections.
	code := 0
	dctx, dcancel := context.WithTimeout(context.Background(), *drain)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintln(stderr, "ptserve: drain:", err)
		code = 1
	}
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "ptserve: shutdown:", err)
		code = 1
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "ptserve:", err)
		code = 1
	}
	fmt.Fprintln(stdout, "ptserve: drained, bye")
	return code
}

// registerWithCoordinator self-registers this node with a ptcoord
// instance. The coordinator probes the advertised URL synchronously, so
// a successful join means the coordinator can actually reach us.
func registerWithCoordinator(coord, id, self string) error {
	body, _ := json.Marshal(struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}{id, self})
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(coord+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("coordinator answered %d: %s", resp.StatusCode, msg)
	}
	return nil
}
