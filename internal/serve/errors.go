package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ptx/internal/runctl"
	"ptx/internal/supervise"
	"ptx/internal/wal"
)

// ValidationError reports a request or registry problem the CLIENT can
// fix: an unknown spec or database name, a duplicate registration, a
// malformed request body, an out-of-range option. It is deliberately
// distinct from *runctl.ErrInternal — validation failures are the
// expected fate of untrusted input, not server bugs — and maps to
// HTTP 400.
type ValidationError struct {
	Field string // which part of the request or registration is wrong
	Msg   string
}

func (e *ValidationError) Error() string {
	if e.Field == "" {
		return "serve: invalid request: " + e.Msg
	}
	return fmt.Sprintf("serve: invalid %s: %s", e.Field, e.Msg)
}

// Validationf builds a *ValidationError for field.
func Validationf(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// ErrOverloaded reports that the admission queue was full and the
// request was shed immediately instead of queued to death. Maps to
// HTTP 429.
type ErrOverloaded struct {
	Queued int // wait-queue occupancy observed at rejection
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("serve: overloaded: admission queue full (%d waiting)", e.Queued)
}

// ErrDraining reports that the server is shutting down and no longer
// admits work. Maps to HTTP 503.
var ErrDraining = errors.New("serve: draining: server is shutting down")

// Error kinds of the stable JSON error schema. Clients dispatch on Kind
// (the HTTP status is derived from it and the pair never disagrees —
// TestErrorCodeTable pins the mapping).
const (
	KindValidation = "validation" // 400: bad request or unknown spec/db
	KindTooLarge   = "too-large"  // 413: request body exceeds the cap
	KindBudget     = "budget"     // 413: a resource budget tripped mid-run
	KindCanceled   = "canceled"   // 408: deadline expired or client gone
	KindConflict   = "conflict"   // 409: ownership fence — another node owns this run
	KindOverloaded = "overloaded" // 429: shed at admission, retry later
	KindDraining   = "draining"   // 503: shutting down
	KindTransient  = "transient"  // 503: transient fault survived retries
	KindStorage    = "storage"    // 503: durable append failed — the delta was NOT applied
	KindInternal   = "internal"   // 500: contained panic or unclassified
)

// ErrorInfo is the body of every non-200 response, stable across
// releases: {"error":{"kind":…,"message":…,…}}.
type ErrorInfo struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Budget carries the typed budget report when Kind == "budget".
	Budget *BudgetInfo `json:"budget,omitempty"`
	// Queued carries the queue occupancy when Kind == "overloaded".
	Queued int `json:"queued,omitempty"`
}

// BudgetInfo mirrors runctl.ErrBudget in the wire schema.
type BudgetInfo struct {
	Resource string `json:"resource"`
	Limit    int    `json:"limit"`
	Observed int    `json:"observed"`
}

type errorBody struct {
	Error ErrorInfo `json:"error"`
}

// BodyError types a failure to read or decode a request body: an
// oversized body keeps its *http.MaxBytesError (413 too_large); any
// other failure is a validation error on the body (400).
func BodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return mbe
	}
	return Validationf("body", "%v", err)
}

// Classify maps any error surfaced by the publish path to its HTTP
// status and wire-schema ErrorInfo. The order is deliberate:
// admission and validation classes first (they are this package's own
// types), then the runctl taxonomy from most to least specific, with
// the transient marker checked after the concrete types so a
// transient-wrapped budget still reports as a budget.
func Classify(err error) (int, ErrorInfo) {
	var ve *ValidationError
	var oe *ErrOverloaded
	var mbe *http.MaxBytesError
	var fe *supervise.ErrFenced
	var se *wal.StorageError
	var be *runctl.ErrBudget
	var ce *runctl.ErrCanceled
	var ie *runctl.ErrInternal
	switch {
	case errors.As(err, &ve):
		return http.StatusBadRequest, ErrorInfo{Kind: KindValidation, Message: ve.Error()}
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, ErrorInfo{Kind: KindTooLarge, Message: err.Error()}
	case errors.As(err, &oe):
		return http.StatusTooManyRequests, ErrorInfo{Kind: KindOverloaded, Message: oe.Error(), Queued: oe.Queued}
	case errors.As(err, &fe):
		return http.StatusConflict, ErrorInfo{Kind: KindConflict, Message: fe.Error()}
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, ErrorInfo{Kind: KindDraining, Message: ErrDraining.Error()}
	case errors.As(err, &se):
		// Before the transient check: a storage failure may WRAP an
		// injected transient cause, but the contract the client needs is
		// the storage one — the delta was not made durable, not applied,
		// and a retry may succeed once the disk recovers.
		return http.StatusServiceUnavailable, ErrorInfo{Kind: KindStorage, Message: se.Error()}
	case errors.As(err, &be):
		return http.StatusRequestEntityTooLarge, ErrorInfo{
			Kind:    KindBudget,
			Message: be.Error(),
			Budget:  &BudgetInfo{Resource: string(be.Kind), Limit: be.Limit, Observed: be.Observed},
		}
	case errors.As(err, &ce):
		return http.StatusRequestTimeout, ErrorInfo{Kind: KindCanceled, Message: ce.Error()}
	case runctl.IsTransient(err):
		return http.StatusServiceUnavailable, ErrorInfo{Kind: KindTransient, Message: err.Error()}
	case errors.As(err, &ie):
		return http.StatusInternalServerError, ErrorInfo{Kind: KindInternal, Message: ie.Error()}
	default:
		return http.StatusInternalServerError, ErrorInfo{Kind: KindInternal, Message: err.Error()}
	}
}

// StatusForKind returns the HTTP status every error of the given wire
// kind carries. Tests use it to assert the body and the status line can
// never disagree.
func StatusForKind(kind string) (int, bool) {
	switch kind {
	case KindValidation:
		return http.StatusBadRequest, true
	case KindTooLarge, KindBudget:
		return http.StatusRequestEntityTooLarge, true
	case KindCanceled:
		return http.StatusRequestTimeout, true
	case KindConflict:
		return http.StatusConflict, true
	case KindOverloaded:
		return http.StatusTooManyRequests, true
	case KindDraining, KindTransient, KindStorage:
		return http.StatusServiceUnavailable, true
	case KindInternal:
		return http.StatusInternalServerError, true
	}
	return 0, false
}

// RetryAfter returns the Retry-After hint in seconds for retryable
// rejections, derived from the pressure the request actually observed:
// a shed request backs off in proportion to the queue depth at
// rejection (one second per four waiters, capped — deeper queue means
// a longer useful wait), draining tells clients to sit out a restart,
// and a transient fault merits a quick retry. ok is false for kinds
// where retrying the same request cannot help (validation, budget,
// conflict, internal); those responses carry no Retry-After at all.
// TestErrorCodeTable pins the derivation.
func RetryAfter(err error) (seconds int, ok bool) {
	_, info := Classify(err)
	switch info.Kind {
	case KindOverloaded:
		return min(1+info.Queued/4, 30), true
	case KindDraining:
		return 5, true
	case KindTransient:
		return 1, true
	case KindStorage:
		// Disk pressure does not clear in a second; hint a real pause.
		return 5, true
	}
	return 0, false
}

// RefuseHead answers 405 with Allow: GET to a HEAD, which a GET pattern
// would serve as a full GET (a HEAD /watch would start a watch).
func RefuseHead(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Allow", http.MethodGet)
	w.WriteHeader(http.StatusMethodNotAllowed)
}

// WriteError serializes the stable JSON error schema. Retryable
// rejections (shedding, draining, transient) advertise Retry-After so
// well-behaved clients back off instead of hammering a hot server —
// the value scales with observed queue depth (RetryAfter).
func WriteError(w http.ResponseWriter, err error) {
	status, info := Classify(err)
	w.Header().Set("Content-Type", "application/json")
	if secs, ok := RetryAfter(err); ok {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(errorBody{Error: info}) // best effort: the client may be gone
}
