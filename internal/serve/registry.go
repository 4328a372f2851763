package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ptx/internal/eval"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/supervise"
	"ptx/internal/wal"
)

// Registry holds the compiled transducer specs and the databases a
// server publishes from. Specs are parsed and validated at registration
// time (behind panic containment — the parser sees untrusted text), so
// a request can never be the first thing to discover a bad spec. Each
// database owns its source, its mutation history and its resolved pairs
// (see database); mu guards only the name maps and the attached WAL, so
// a commit on one database never waits on a publish or a write to
// another.
//
// All methods are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]*pt.Transducer
	dbs   map[string]*database
	log   *wal.Log // set by AttachWAL; RegisterDB is refused from then on
}

// database is one registered database: its source text, its sequenced
// mutation history and the (spec, db) pair versions derived from them.
// The source is parsed lazily per pair, because an instance is only
// meaningful against a concrete spec's schema, and a pair resolved after
// mutations replays the history once, so all pairs over one database
// agree on its contents. Each pair caches its current version with that
// version's memo and documents, which repeated publishes share; a commit
// moves every resolved pair to its next version (see database.commit).
//
// w, the writer lock, orders the database's writes, its live views'
// repairs and their creation; mu guards the history and the pairs. The
// history (seq, epoch, recs, log) changes only under both, so a writer
// reads it under w alone.
type database struct {
	name, src string
	w         sync.Mutex
	mu        sync.RWMutex
	seq       uint64                // last assigned sequence number (0 = pristine)
	epoch     uint64                // highest epoch on an accepted write: fences zombie owners
	recs      []DeltaRecord         // every accepted delta, in sequence order
	log       *wal.Log              // the attached WAL, nil without one
	pairs     map[string]*pairEntry // spec → current version
}

// indexOf locates the in-memory record holding seq (records are
// contiguous, so the offset from the first record's seq is the index).
func (d *database) indexOf(seq uint64) (int, bool) {
	if len(d.recs) == 0 || seq < d.recs[0].Seq {
		return 0, false
	}
	idx := int(seq - d.recs[0].Seq)
	if idx >= len(d.recs) {
		return 0, false
	}
	return idx, true
}

// admit is the history's one acceptance rule for a sequenced record,
// used by WAL replay, writes and replication alike. A record at a held
// sequence from the same or an older epoch, or before the first record,
// is a duplicate (ok false: deltas are idempotent, so the history
// already reflects it). Otherwise it goes at index at: past the head it
// appends (a caller that needs contiguity checks for a gap itself), and
// at a held sequence with a NEWER epoch it supersedes the suffix from
// there on. The superseded records were written by a deposed owner and
// never acknowledged (an acknowledged record reaches every up member
// before its ack, so its sequence number is never reassigned): the new
// regime's history wins.
func (d *database) admit(rec DeltaRecord) (at int, ok bool) {
	if idx, held := d.indexOf(rec.Seq); held {
		return idx, rec.Epoch > d.recs[idx].Epoch
	}
	return len(d.recs), rec.Seq > d.seq
}

// put installs a record admit placed at index at. A superseded suffix is
// dropped by copying the kept prefix, since RecordsSince's results and a
// resolving pair share the storage.
func (d *database) put(rec DeltaRecord, at int) {
	if at < len(d.recs) {
		d.recs = append([]DeltaRecord(nil), d.recs[:at]...)
	}
	d.recs = append(d.recs, rec)
	d.seq = rec.Seq
	if rec.Epoch > d.epoch {
		d.epoch = rec.Epoch
	}
}

// DeltaRecord is one committed mutation: its per-database sequence
// number, the ownership epoch the write carried, and the delta itself.
type DeltaRecord struct {
	Seq   uint64
	Epoch uint64
	Delta *relation.Delta
}

// GapError reports a replicated record that arrived out of order: the
// receiver holds Have, the record claims Got > Have+1. The sender
// repairs by re-sending from Have+1 (deltas are idempotent, so overlap
// is harmless).
type GapError struct {
	DB        string
	Have, Got uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("serve: replication gap on %q: have seq %d, got %d", e.DB, e.Have, e.Got)
}

// pairEntry caches what one (spec, db) pair shares across requests: the
// transducer it resolves against and its current version, zero until
// once's first resolution succeeds, read and replaced under the
// database's mu.
type pairEntry struct {
	once sync.Once
	err  error
	tr   *pt.Transducer
	pairVersion
}

// pairVersion is one instance version of a pair (immutable once served)
// with what is cached for it: the query memo (concurrency-safe) and, per
// output form, the rendered document of τ(inst) once an eligible run has
// produced it (see keepDocument). A commit replaces the whole version.
// The next version inherits the memo and the documents when the delta
// changed no relation a rule query of the spec reads (see database.commit):
// every query result, and so τ by Proposition 1(1), is then the same on
// both instances. Otherwise it starts cold, so a memo or document never
// serves an instance whose relations it did not read.
type pairVersion struct {
	inst *relation.Instance
	memo *eval.Memo
	docs [2]*document // indexed by docForm
}

// document is τ(inst) rendered in one output form, with the node count
// of the run that built it. Its bytes are never modified, so their
// integrity sum is computed at most once, for the first hop that asks
// for it (see writeDocument).
type document struct {
	body  []byte
	nodes int

	sumOnce sync.Once
	bodySum string
}

// sum returns BodySum(d.body), computing it on first use.
func (d *document) sum() string {
	d.sumOnce.Do(func() { d.bodySum = BodySum(d.body) })
	return d.bodySum
}

// docForm indexes pairVersion.docs: 0 for XML, 1 for canonical form.
func docForm(canonical bool) int {
	if canonical {
		return 1
	}
	return 0
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]*pt.Transducer), dbs: make(map[string]*database)}
}

// AttachWAL binds a durable log to the registry and replays its
// recovered records into the registered databases' histories, so every
// pair resolved afterwards serves post-delta bytes; a record of any
// other name is skipped. From here on a write appends (and fsyncs) to
// the log BEFORE committing in memory — the ack-after-durable contract —
// and RegisterDB is refused. Every database's writer lock is taken
// before the log is set and released after that database's replay, so
// no write sees the registry attached and its own database not.
// Replayed history invalidates the pairs resolved before it. Returns
// the number of records replayed.
func (r *Registry) AttachWAL(l *wal.Log) (n int) {
	var dbs []*database
	for set := false; !set; {
		for _, d := range dbs { // a database was registered meanwhile
			d.w.Unlock()
		}
		dbs = dbs[:0]
		for _, name := range r.DBNames() { // sorted: one lock order
			d, _ := r.db(name)
			d.w.Lock()
			dbs = append(dbs, d)
		}
		r.mu.Lock()
		if set = len(dbs) == len(r.dbs); set {
			r.log = l
		}
		r.mu.Unlock()
	}
	recs := l.Records()
	for _, d := range dbs {
		d.mu.Lock()
		d.log = l
		for _, wr := range recs {
			if wr.DB != d.name {
				continue
			}
			rec := DeltaRecord{Seq: wr.Seq, Epoch: wr.Epoch, Delta: wr.Delta}
			if at, ok := d.admit(rec); ok {
				d.put(rec, at)
				n++
			}
		}
		clear(d.pairs)
		d.mu.Unlock()
		d.w.Unlock()
	}
	return n
}

// WALMetrics snapshots the attached log's counters (zero without one).
func (r *Registry) WALMetrics() wal.Metrics {
	r.mu.RLock()
	l := r.log
	r.mu.RUnlock()
	if l == nil {
		return wal.Metrics{}
	}
	return l.Metrics()
}

// RegisterSpec parses, validates and installs a transducer spec under
// name. Duplicate names and unparsable or invalid specs return a
// *ValidationError — registration failures are caller mistakes, not
// server faults.
func (r *Registry) RegisterSpec(name, src string) error {
	if name == "" {
		return Validationf("spec", "empty name")
	}
	tr, err := parseSpec(name, src)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[name]; dup {
		return Validationf("spec", "duplicate registration of %q", name)
	}
	r.specs[name] = tr
	return nil
}

// parseSpec contains the untrusted-input parsing: parser panics are
// converted by the parser's own recover into errors, and any residual
// panic in validation is contained here rather than killing the server.
func parseSpec(name, src string) (tr *pt.Transducer, err error) {
	defer runctl.Recover(&err, "serve.parseSpec")
	tr, perr := parser.ParseTransducer(src)
	if perr != nil {
		return nil, Validationf("spec", "%q does not parse: %v", name, perr)
	}
	if verr := tr.Validate(); verr != nil {
		return nil, Validationf("spec", "%q does not validate: %v", name, verr)
	}
	return tr, nil
}

// RegisterDB installs a database source under name. The text is parsed
// lazily against each spec's schema at publish time; registration only
// rejects duplicates and empty names so one database can serve any
// spec whose schema accepts it. It is refused after AttachWAL: the new
// database's history would restart at seq 1 over records already on
// disk.
func (r *Registry) RegisterDB(name, src string) error {
	if name == "" {
		return Validationf("db", "empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.dbs[name]; dup {
		return Validationf("db", "duplicate registration of %q", name)
	}
	if r.log != nil {
		return Validationf("db", "%q registered after AttachWAL", name)
	}
	r.dbs[name] = &database{name: name, src: src, pairs: make(map[string]*pairEntry)}
	return nil
}

// db returns the database registered under name, or a typed
// *ValidationError naming the unknown database and the available ones.
func (r *Registry) db(name string) (*database, error) {
	r.mu.RLock()
	d := r.dbs[name]
	r.mu.RUnlock()
	if d == nil {
		return nil, Validationf("db", "unknown database %q (have: %s)", name, strings.Join(r.DBNames(), ", "))
	}
	return d, nil
}

// Spec returns the registered transducer, or a typed *ValidationError
// naming the unknown spec and the available ones.
func (r *Registry) Spec(name string) (*pt.Transducer, error) {
	r.mu.RLock()
	tr, ok := r.specs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, Validationf("spec", "unknown spec %q (have: %s)", name, strings.Join(r.SpecNames(), ", "))
	}
	return tr, nil
}

// Pair resolves a (spec, db) pair to the transducer, the pair's current
// instance version and that version's shared query memo. A resolved
// pair costs two read locks, the registry's and the database's. The
// first resolution — and the first after AttachWAL or a supersede (see
// database.apply) — parses the source and replays the database's
// history. Unknown names are typed validation errors; a database that
// does not parse against the spec's schema likewise (cached, so a
// hopeless pair fails fast forever).
func (r *Registry) Pair(spec, db string) (*pt.Transducer, *relation.Instance, *eval.Memo, error) {
	tr, v, err := r.version(spec, db)
	return tr, v.inst, v.memo, err
}

// version is Pair returning the whole current version, documents
// included.
func (r *Registry) version(spec, db string) (*pt.Transducer, pairVersion, error) {
	r.mu.RLock()
	tr, d := r.specs[spec], r.dbs[db]
	r.mu.RUnlock()
	if tr == nil || d == nil { // the typed error naming what is registered
		_, err := r.Spec(spec)
		if err == nil {
			_, err = r.db(db)
		}
		return nil, pairVersion{}, err
	}
	v, err := d.version(spec, tr)
	return tr, v, err
}

// version returns the current version of the pair (spec, d), resolving
// it against tr first if needed, read under one lock.
func (d *database) version(spec string, tr *pt.Transducer) (pairVersion, error) {
	d.mu.RLock()
	e := d.pairs[spec]
	if e != nil && e.inst != nil {
		defer d.mu.RUnlock()
		return e.pairVersion, nil
	}
	d.mu.RUnlock()
	d.mu.Lock()
	if e = d.pairs[spec]; e == nil {
		e = &pairEntry{tr: tr}
		d.pairs[spec] = e
	}
	d.mu.Unlock()
	e.once.Do(func() { e.err = d.resolve(e, spec) })
	if e.err != nil {
		return pairVersion{}, e.err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return e.pairVersion, nil
}

// keepDocument stores doc as the rendered document, in the given form,
// of the pair's version inst, and releases that version's memo: every
// later eligible publish of the version is served from the document, so
// the memo would only pin results no run reads. Runs in flight keep the
// memo they hold, and a later ineligible run of the version starts
// cold, as the first run after a write does. Nothing is stored if inst
// is no longer the pair's current version (versions are fresh
// pointers, so an instance cannot come back).
func (r *Registry) keepDocument(spec, db string, inst *relation.Instance, canonical bool, doc *document) {
	d, err := r.db(db)
	if err != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.pairs[spec]; e != nil && e.inst == inst {
		e.docs[docForm(canonical)] = doc
		e.memo = eval.NewMemo(0)
	}
}

// resolve builds e's first version. The parse and the replay of the
// history run outside the lock; records committed meanwhile (a commit
// skips an entry still resolving) are replayed under it before the
// version is installed. If AttachWAL or a supersede removed e
// meanwhile, its version only serves the requests already waiting on
// it. Apply skips the deltas the pair's schema rejects: they concern
// relations this pair does not hold.
func (d *database) resolve(e *pairEntry, spec string) error {
	inst, err := parseInstance(spec, d.name, d.src, e.tr)
	if err != nil {
		return err
	}
	replay := func(recs []DeltaRecord) {
		for _, rec := range recs {
			_, _ = inst.Apply(rec.Delta)
		}
	}
	d.mu.RLock()
	done := d.recs
	d.mu.RUnlock()
	replay(done)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pairs[spec] == e {
		replay(d.recs[len(done):])
	}
	e.pairVersion = pairVersion{inst: inst, memo: eval.NewMemo(0)}
	return nil
}

// parseInstance parses a database source with panic containment,
// typing parse failures as validation errors. The parser declares every
// relation the source mentions, so it gets a private copy of the spec's
// shared schema.
func parseInstance(spec, db, src string, tr *pt.Transducer) (inst *relation.Instance, err error) {
	defer runctl.Recover(&err, "serve.parseInstance")
	schema := relation.NewSchema()
	for _, n := range tr.Schema.Names() {
		a, _ := tr.Schema.Arity(n)
		schema.MustDeclare(n, a)
	}
	inst, perr := parser.ParseInstance(src, schema)
	if perr != nil {
		return nil, Validationf("db", "%q does not parse against spec %q: %v", db, spec, perr)
	}
	return inst, nil
}

// MutateDB appends a delta to a registered database's history (see
// database.apply: durably first when a WAL is attached, so an
// acknowledged delta survives a crash) and moves every resolved pair
// over it to its next version (see database.commit), taking only that
// database's locks. A publish in flight keeps the (instance, memo)
// version it resolved — internally consistent, pre-delta — while every
// later resolution sees post-delta state: before-or-after, never torn.
//
// epoch is the cluster ownership epoch the write carries (0 outside a
// cluster, which bypasses fencing): a write whose epoch is BELOW the
// database's high-water mark is a zombie owner's and is refused with a
// typed *supervise.ErrFenced (HTTP 409) before any state is touched.
//
// It returns the number of cached pairs moved to a new version and the
// sequence number assigned to the delta. Unknown databases are typed
// validation errors; a WAL append failure is a typed *wal.StorageError
// and the delta is atomically absent. Per-schema validation happens per
// pair (and, for the caller's schema, before calling — see
// Server.handleMutate).
func (r *Registry) MutateDB(db string, delta *relation.Delta, epoch uint64) (int, uint64, error) {
	if delta == nil || delta.Empty() {
		return 0, 0, Validationf("delta", "empty delta")
	}
	d, err := r.db(db)
	if err != nil {
		return 0, 0, err
	}
	d.w.Lock()
	defer d.w.Unlock()
	return d.mutate(delta, epoch)
}

// mutate is MutateDB under the writer lock w, for a non-empty delta.
func (d *database) mutate(delta *relation.Delta, epoch uint64) (moved int, seq uint64, err error) {
	seq = d.seq + 1
	moved, _, err = d.apply(DeltaRecord{Seq: seq, Epoch: epoch, Delta: delta})
	return moved, seq, err
}

// apply installs a non-empty record, a write's or a replicated one at
// its original sequence number, under the writer lock w (Server.mutate
// and Server.applyRecords take it). Epoch fencing applies first; then
// admit's rule makes duplicate and out-of-order delivery safe: a
// duplicate is skipped (applied false, nil error), the successor record
// commits, and anything further ahead is a *GapError telling the sender
// where to resume. The record is durable (appended to the attached WAL
// and fsynced) before commit changes anything in memory, and only w is
// held meanwhile, so publishes keep resolving pairs while the disk
// works. It returns how many pairs moved.
func (d *database) apply(rec DeltaRecord) (moved int, applied bool, err error) {
	if rec.Epoch > 0 && rec.Epoch < d.epoch {
		return 0, false, &supervise.ErrFenced{Key: "mutate\x00" + d.name, Epoch: rec.Epoch, Stored: d.epoch}
	}
	at, ok := d.admit(rec)
	switch {
	case !ok:
		return 0, false, nil
	case rec.Seq > d.seq+1:
		return 0, false, &GapError{DB: d.name, Have: d.seq, Got: rec.Seq}
	}
	if d.log != nil {
		if err := d.log.Append(wal.Record{DB: d.name, Seq: rec.Seq, Epoch: rec.Epoch, Delta: rec.Delta}); err != nil {
			return 0, false, err
		}
	}
	return d.commit(rec, at), true, nil
}

// commit commits one durable record in memory at index at (see admit)
// and moves every resolved pair to its next version. A version whose
// spec has no rule reading a relation the effective delta changed (pt's
// Readers, which count a domain-reading query as a reader of every
// relation) inherits its predecessor's memo and documents; any other
// starts cold; a pair whose schema rejects the delta, or on which it
// has no effect, keeps its version. A supersede (at inside the history)
// deletes the cached pairs: their versions carry the stale records, so
// the next Pair re-resolves them from the reconciled history. It returns
// how many pairs moved. The caller holds w; commit takes mu, which no
// other database shares.
func (d *database) commit(rec DeltaRecord, at int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if at < len(d.recs) {
		clear(d.pairs)
	}
	d.put(rec, at)
	moved := 0
	for _, e := range d.pairs {
		if e.inst == nil {
			continue // unresolved: resolve catches up under mu
		}
		next, eff, err := e.inst.Derive(rec.Delta)
		if err != nil || eff.Empty() {
			continue
		}
		if rules, _ := e.tr.Readers(eff.Rels()); len(rules) == 0 {
			e.inst = next
		} else {
			e.pairVersion = pairVersion{inst: next, memo: eval.NewMemo(0)}
		}
		moved++
	}
	return moved
}

// Seq returns the last committed sequence number.
func (d *database) Seq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.seq
}

// EpochHighWater returns the highest epoch observed on an accepted
// write.
func (d *database) EpochHighWater() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// RecordsSince returns the records with sequence numbers strictly
// after `after` — the resend tail for replication gap repair. The
// result shares the history's storage (records are only ever appended,
// and a truncation copies), so it costs no copy; callers must not
// modify it.
func (d *database) RecordsSince(after uint64) []DeltaRecord {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.recs) == 0 {
		return nil
	}
	from := 0
	if after >= d.recs[0].Seq {
		idx, ok := d.indexOf(after + 1)
		if !ok {
			return nil
		}
		from = idx
	}
	return d.recs[from:len(d.recs):len(d.recs)]
}

// Seq returns the database's last committed sequence number (0 for an
// unknown database).
func (r *Registry) Seq(db string) uint64 {
	if d, err := r.db(db); err == nil {
		return d.Seq()
	}
	return 0
}

// EpochHighWater returns the highest epoch observed on an accepted
// write to the database (0 for an unknown database).
func (r *Registry) EpochHighWater(db string) uint64 {
	if d, err := r.db(db); err == nil {
		return d.EpochHighWater()
	}
	return 0
}

// RecordsSince is database.RecordsSince by name (nil for an unknown db).
func (r *Registry) RecordsSince(db string, after uint64) []DeltaRecord {
	if d, err := r.db(db); err == nil {
		return d.RecordsSince(after)
	}
	return nil
}

// SpecNames lists the registered specs, sorted.
func (r *Registry) SpecNames() []string { return sortedNames(&r.mu, r.specs) }

// DBNames lists the registered databases, sorted.
func (r *Registry) DBNames() []string { return sortedNames(&r.mu, r.dbs) }

// sortedNames lists m's keys, sorted, read under mu.
func sortedNames[V any](mu *sync.RWMutex, m map[string]V) []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoadDir registers every *.pt file as a spec and every *.db file as a
// database, named by basename without extension. A directory with no
// loadable spec is a validation error — a server with nothing to
// publish is a deployment mistake worth failing loudly on.
func (r *Registry) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: reading spec dir: %w", err)
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != ".pt" && ext != ".db" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return fmt.Errorf("serve: reading %s: %w", e.Name(), err)
		}
		name := strings.TrimSuffix(e.Name(), ext)
		if ext == ".pt" {
			if err := r.RegisterSpec(name, string(src)); err != nil {
				return fmt.Errorf("serve: loading %s: %w", e.Name(), err)
			}
			loaded++
		} else {
			if err := r.RegisterDB(name, string(src)); err != nil {
				return fmt.Errorf("serve: loading %s: %w", e.Name(), err)
			}
		}
	}
	if loaded == 0 {
		return Validationf("spec", "no .pt specs in %s", dir)
	}
	return nil
}
