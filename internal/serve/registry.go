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

// Registry holds the compiled transducer specs and database sources a
// server publishes from. Specs are parsed and validated at registration
// time (behind panic containment — the parser sees untrusted text), so
// a request can never be the first thing to discover a bad spec.
// Database sources are stored as text and parsed lazily per (spec, db)
// pair, because an instance is only meaningful against a concrete
// spec's schema. Each resolved pair caches its current instance version
// with that version's query memo and rendered documents, so repeated
// publishes share warm state; a committed delta moves every resolved
// pair over its database to the next version (see MutateDB).
//
// All methods are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]*pt.Transducer
	dbs   map[string]string // name → source text

	// writers holds each database's writer lock (see lockDB); mu is
	// held only for the in-memory commit. A log changes under both.
	writers map[string]*sync.Mutex

	pairs map[string]map[string]*pairEntry // db → spec → current version

	// logs is the per-database mutation log: every delta accepted by
	// MutateDB (or replicated in via applyAtLocked), in sequence order. A pair
	// resolved AFTER mutations replays the log once, so all pairs over
	// one database agree on its current contents. Each log carries the
	// database's sequence counter and its epoch high-water mark — the
	// fencing state that rejects a zombie owner's stale writes.
	log  *wal.Log
	logs map[string]*dbLog
}

// dbLog is one database's sequenced mutation history.
type dbLog struct {
	seq   uint64 // last assigned sequence number (0 = pristine)
	epoch uint64 // highest epoch observed on an accepted write
	recs  []DeltaRecord
}

// indexOf locates the in-memory record holding seq (records are
// contiguous, so the offset from the first record's seq is the index).
func (lg *dbLog) indexOf(seq uint64) (int, bool) {
	if len(lg.recs) == 0 || seq < lg.recs[0].Seq {
		return 0, false
	}
	idx := int(seq - lg.recs[0].Seq)
	if idx >= len(lg.recs) {
		return 0, false
	}
	return idx, true
}

// admit is the log's one acceptance rule for a sequenced record, used by
// WAL replay and replication alike. A record at a held sequence from the
// same or an older epoch, or before the log's first record, is a
// duplicate (ok false: deltas are idempotent, so the log already
// reflects it). Otherwise it goes at index at: past the head it appends
// (a caller that needs contiguity checks for a gap itself), and at a held
// sequence with a NEWER epoch it supersedes the suffix from there on. The
// superseded records were written by a deposed owner and never
// acknowledged (an acknowledged record reaches every up member before its
// ack, so its sequence number is never reassigned): the new regime's
// history wins.
func (lg *dbLog) admit(rec DeltaRecord) (at int, ok bool) {
	if idx, held := lg.indexOf(rec.Seq); held {
		return idx, rec.Epoch > lg.recs[idx].Epoch
	}
	return len(lg.recs), rec.Seq > lg.seq
}

// put installs a record admit placed at index at. A superseded suffix is
// dropped by copying the kept prefix, since logHead's copies share the
// storage.
func (lg *dbLog) put(rec DeltaRecord, at int) {
	if at < len(lg.recs) {
		lg.recs = append([]DeltaRecord(nil), lg.recs[:at]...)
	}
	lg.recs = append(lg.recs, rec)
	lg.seq = rec.Seq
	if rec.Epoch > lg.epoch {
		lg.epoch = rec.Epoch
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

// pairEntry caches what one (spec, db) pair shares across requests: its
// current version, zero until once's first resolution succeeds, and
// read and replaced under Registry.mu.
type pairEntry struct {
	once sync.Once
	err  error
	pairVersion
}

// pairVersion is one instance version of a pair (immutable once served)
// with what is cached for it: the query memo (concurrency-safe) and, per
// output form, the rendered document of τ(inst) once an eligible run has
// produced it (see keepDocument). A commit replaces the whole version.
// The next version inherits the memo and the documents when the delta
// changed no relation a rule query of the spec reads (see commitLocked):
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
	return &Registry{
		specs:   make(map[string]*pt.Transducer),
		dbs:     make(map[string]string),
		writers: make(map[string]*sync.Mutex),
		pairs:   make(map[string]map[string]*pairEntry),
		logs:    make(map[string]*dbLog),
	}
}

// AttachWAL binds a durable log to the registry and replays its
// recovered records into the in-memory mutation logs, so every pair
// resolved afterwards serves post-delta bytes. From here on MutateDB
// appends (and fsyncs) to the log BEFORE committing in memory — the
// ack-after-durable contract. Returns the number of records replayed.
func (r *Registry) AttachWAL(l *wal.Log) int {
	recs := l.Records()
	for _, n := range r.DBNames() {
		w, _ := r.lockDB(n)
		defer w.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = l
	n := 0
	for _, rec := range recs {
		lg, dr := r.logsLocked(rec.DB), DeltaRecord{Seq: rec.Seq, Epoch: rec.Epoch, Delta: rec.Delta}
		if at, ok := lg.admit(dr); ok {
			lg.put(dr, at)
			n++
		}
	}
	// Replayed history invalidates anything resolved pre-attach.
	for _, specs := range r.pairs {
		clear(specs)
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

func (r *Registry) logsLocked(db string) *dbLog {
	lg, ok := r.logs[db]
	if !ok {
		lg = &dbLog{}
		r.logs[db] = lg
	}
	return lg
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
// spec whose schema accepts it.
func (r *Registry) RegisterDB(name, src string) error {
	if name == "" {
		return Validationf("db", "empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.dbs[name]; dup {
		return Validationf("db", "duplicate registration of %q", name)
	}
	r.dbs[name] = src
	r.writers[name] = new(sync.Mutex)
	r.pairs[name] = make(map[string]*pairEntry)
	return nil
}

// lockDB locks and returns db's writer lock (unknown db: a validation
// error). It orders db's writes, view repairs and view creation.
func (r *Registry) lockDB(db string) (*sync.Mutex, error) {
	r.mu.RLock()
	w, ok := r.writers[db]
	r.mu.RUnlock()
	if !ok {
		return nil, Validationf("db", "unknown database %q (have: %s)", db, strings.Join(r.DBNames(), ", "))
	}
	w.Lock()
	return w, nil
}

// hasDB reports whether db is registered.
func (r *Registry) hasDB(db string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.dbs[db]
	return ok
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
// pair costs one read lock. The first resolution — and the first after
// AttachWAL or a supersede (see applyAtLocked) — parses the source and
// replays the database's log. Unknown names are typed validation
// errors; a database that does not parse against the spec's schema
// likewise (cached, so a hopeless pair fails fast forever).
func (r *Registry) Pair(spec, db string) (*pt.Transducer, *relation.Instance, *eval.Memo, error) {
	tr, v, err := r.version(spec, db)
	return tr, v.inst, v.memo, err
}

// version is Pair returning the whole current version, documents
// included, read under one lock.
func (r *Registry) version(spec, db string) (*pt.Transducer, pairVersion, error) {
	r.mu.RLock()
	tr, e := r.specs[spec], r.pairs[db][spec]
	src, dbOK := r.dbs[db]
	if e != nil && e.inst != nil {
		defer r.mu.RUnlock()
		return tr, e.pairVersion, nil
	}
	r.mu.RUnlock()
	if tr == nil {
		_, err := r.Spec(spec)
		return nil, pairVersion{}, err
	}
	if !dbOK {
		return nil, pairVersion{}, Validationf("db", "unknown database %q (have: %s)", db, strings.Join(r.DBNames(), ", "))
	}
	r.mu.Lock()
	if e = r.pairs[db][spec]; e == nil {
		e = &pairEntry{}
		r.pairs[db][spec] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.err = r.resolve(e, tr, spec, db, src) })
	if e.err != nil {
		return nil, pairVersion{}, e.err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return tr, e.pairVersion, nil
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.pairs[db][spec]; e != nil && e.inst == inst {
		e.docs[docForm(canonical)] = doc
		e.memo = eval.NewMemo(0)
	}
}

// resolve builds e's first version. The parse and the replay of the log
// run outside the lock; records committed meanwhile (a commit skips an
// entry still resolving) are replayed under it before the version is
// installed. If AttachWAL or a supersede removed e meanwhile, its
// version only serves the requests already waiting on it. Apply skips
// the deltas the pair's schema rejects: they concern relations this
// pair does not hold.
func (r *Registry) resolve(e *pairEntry, tr *pt.Transducer, spec, db, src string) error {
	inst, err := parseInstance(spec, db, src, tr)
	if err != nil {
		return err
	}
	replay := func(recs []DeltaRecord) {
		for _, rec := range recs {
			_, _ = inst.Apply(rec.Delta)
		}
	}
	var done []DeltaRecord
	r.mu.RLock()
	if lg := r.logs[db]; lg != nil {
		done = lg.recs
	}
	r.mu.RUnlock()
	replay(done)
	r.mu.Lock()
	defer r.mu.Unlock()
	if lg := r.logs[db]; lg != nil && r.pairs[db][spec] == e {
		replay(lg.recs[len(done):])
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

// MutateDB applies a delta to a registered database: the delta is
// appended (durably first, when a WAL is attached — the record is
// fsynced BEFORE anything in memory changes, so an acknowledged delta
// survives a crash) to the database's mutation log, and every resolved
// (spec, db) pair over it moves to its next instance version, with a
// fresh memo and no documents unless its spec reads none of the
// relations the delta changed (see commitLocked). It holds db's writer
// lock, and takes mu only after the append, for the in-memory commit, so
// the fsync never blocks a publish's Pair or a write to another
// database. The next version shares every relation the delta does not
// touch with the previous one and clones the touched ones before
// applying the delta (relation.Instance.Derive).
// A pair whose schema rejects the delta, or on which it has no effect,
// keeps its version, its memo and its documents.
//
// Deriving instead of mutating in place is the concurrency contract:
// a publish in flight keeps the (instance, memo) version it resolved —
// internally consistent, pre-delta — while every later resolution sees
// post-delta state. Readers observe before-or-after, never torn.
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
func (r *Registry) MutateDB(db string, d *relation.Delta, epoch uint64) (int, uint64, error) {
	if d == nil || d.Empty() {
		return 0, 0, Validationf("delta", "empty delta")
	}
	w, err := r.lockDB(db)
	if err != nil {
		return 0, 0, err
	}
	defer w.Unlock()
	return r.mutateLocked(db, d, epoch)
}

// mutateLocked is MutateDB under db's writer lock, for a non-empty d.
func (r *Registry) mutateLocked(db string, d *relation.Delta, epoch uint64) (int, uint64, error) {
	head, l := r.logHead(db)
	if epoch > 0 && epoch < head.epoch {
		return 0, 0, &supervise.ErrFenced{Key: "mutate\x00" + db, Epoch: epoch, Stored: head.epoch}
	}
	rec := DeltaRecord{Seq: head.seq + 1, Epoch: epoch, Delta: d}
	if err := appendWAL(l, db, rec); err != nil {
		return 0, 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commitLocked(db, rec, len(head.recs)), rec.Seq, nil
}

// applyAtLocked installs a non-empty REPLICATED record at its original
// sequence number; the caller holds db's writer lock (see lockDB), as
// /replicate and /sync do through Server.applyRecords. Epoch fencing
// applies first; then dbLog.admit's rule makes duplicate and out-of-order
// delivery safe: a duplicate is skipped (applied=false, nil error), the
// successor record commits exactly like MutateDB, and anything further
// ahead is a *GapError telling the sender where to resume. A supersede
// truncates the stale suffix once the record is durable and deletes the
// database's cached pairs: their versions carry the stale records, so
// the next Pair re-resolves them from the reconciled log.
func (r *Registry) applyAtLocked(db string, rec DeltaRecord) (applied bool, err error) {
	head, l := r.logHead(db)
	if rec.Epoch > 0 && rec.Epoch < head.epoch {
		return false, &supervise.ErrFenced{Key: "mutate\x00" + db, Epoch: rec.Epoch, Stored: head.epoch}
	}
	at, ok := head.admit(rec)
	switch {
	case !ok:
		return false, nil
	case rec.Seq > head.seq+1:
		return false, &GapError{DB: db, Have: head.seq, Got: rec.Seq}
	}
	if err := appendWAL(l, db, rec); err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if at < len(head.recs) {
		clear(r.pairs[db])
	}
	r.commitLocked(db, rec, at)
	return true, nil
}

// logHead returns a copy of db's log header and the attached WAL (nil
// if none). Its recs share the log's storage. Under db's writer lock
// the log cannot change until the caller commits.
func (r *Registry) logHead(db string) (dbLog, *wal.Log) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if lg := r.logs[db]; lg != nil {
		return *lg, r.log
	}
	return dbLog{}, r.log
}

// appendWAL makes one fenced, sequenced record durable (append and
// fsync) when a log l is attached. Caller holds db's writer lock and not
// mu, so publishes keep resolving pairs while the disk works.
func appendWAL(l *wal.Log, db string, rec DeltaRecord) error {
	if l == nil {
		return nil
	}
	return l.Append(wal.Record{DB: db, Seq: rec.Seq, Epoch: rec.Epoch, Delta: rec.Delta})
}

// commitLocked commits one durable record in memory at index at (see
// dbLog.admit) and moves every resolved pair over db to its next
// version. A version whose spec has no rule reading a relation the
// effective delta changed (pt's Readers, which count a domain-reading
// query as a reader of every relation) inherits its predecessor's memo
// and documents; any other starts cold. It returns how many pairs moved.
// Caller holds db's writer lock and mu.
func (r *Registry) commitLocked(db string, rec DeltaRecord, at int) int {
	r.logsLocked(db).put(rec, at)
	moved := 0
	for spec, e := range r.pairs[db] {
		if e.inst == nil {
			continue // unresolved: resolve catches up under this lock
		}
		next, eff, err := e.inst.Derive(rec.Delta)
		if err != nil || eff.Empty() {
			continue
		}
		if rules, _ := r.specs[spec].Readers(eff.Rels()); len(rules) == 0 {
			e.pairVersion.inst = next
		} else {
			e.pairVersion = pairVersion{inst: next, memo: eval.NewMemo(0)}
		}
		moved++
	}
	return moved
}

// Seq returns the database's last committed sequence number.
func (r *Registry) Seq(db string) uint64 {
	head, _ := r.logHead(db)
	return head.seq
}

// EpochHighWater returns the highest epoch observed on an accepted
// write to the database.
func (r *Registry) EpochHighWater(db string) uint64 {
	head, _ := r.logHead(db)
	return head.epoch
}

// RecordsSince returns the records with sequence numbers strictly
// after `after` — the resend tail for replication gap repair. The
// result shares the log's storage (records are only ever appended, and
// a truncation copies), so it costs no copy; callers must not modify it.
func (r *Registry) RecordsSince(db string, after uint64) []DeltaRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lg, ok := r.logs[db]
	if !ok || len(lg.recs) == 0 {
		return nil
	}
	from := 0
	if after >= lg.recs[0].Seq {
		idx, ok := lg.indexOf(after + 1)
		if !ok {
			return nil
		}
		from = idx
	}
	return lg.recs[from:len(lg.recs):len(lg.recs)]
}

// SpecNames lists the registered specs, sorted.
func (r *Registry) SpecNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.specs))
	for n := range r.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DBNames lists the registered databases, sorted.
func (r *Registry) DBNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dbNamesLocked()
}

func (r *Registry) dbNamesLocked() []string {
	names := make([]string, 0, len(r.dbs))
	for n := range r.dbs {
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
