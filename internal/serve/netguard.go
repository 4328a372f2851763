// Network hardening for inter-node hops: the deadline-propagation
// header that replaces flat client timeouts, and the response-integrity
// trailer that turns silent corruption or truncation into typed
// transport failures a caller can fail over on.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/http"
	"strconv"
	"strings"
	"time"
)

const (
	// HeaderDeadline carries the sender's REMAINING time budget for the
	// request, in milliseconds. A budget, not an absolute timestamp:
	// peers' clocks need not agree for each hop to subtract its own
	// elapsed time. Every receiver clamps its local work to the budget,
	// so no request outlives the deadline its origin set, no matter how
	// many hops it crosses.
	HeaderDeadline = "X-Ptx-Deadline"

	// HeaderWantSum, set by a caller that buffers the whole response,
	// asks the server to append HeaderBodySum — the hex SHA-256 of the
	// response body — as an HTTP trailer. The trailer rides AFTER the
	// body, so a truncated stream is missing it and a corrupted one
	// mismatches it: both become transport errors instead of silently
	// wrong bytes.
	HeaderWantSum = "X-Ptx-Want-Sum"
	HeaderBodySum = "X-Ptx-Body-Sum"
)

// ParseDeadline extracts the remaining budget from h. ok reports
// whether the header was present; a malformed or non-positive value is
// a validation error (a peer that sends the header and gets it wrong
// is misrouting, not just unconfigured).
func ParseDeadline(h http.Header) (budget time.Duration, ok bool, err error) {
	v := h.Get(HeaderDeadline)
	if v == "" {
		return 0, false, nil
	}
	ms, perr := strconv.ParseInt(v, 10, 64)
	if perr != nil || ms < 1 {
		return 0, false, Validationf("deadline", "malformed %s header %q (want remaining ms >= 1)", HeaderDeadline, v)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// FormatDeadline renders a remaining budget for HeaderDeadline,
// flooring at 1ms so an exhausted budget still propagates (and fails
// typed at the receiver) rather than vanishing.
func FormatDeadline(remaining time.Duration) string {
	ms := int64(remaining / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return strconv.FormatInt(ms, 10)
}

// BodySum is the integrity checksum of a response body: hex SHA-256.
func BodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// VerifySum checks a fully buffered response body against the
// integrity sum its sender declared. Peers that never declared one
// (pre-protocol nodes, plain origin servers) pass — the check only
// binds once the response PROMISED a sum, at which point a missing
// trailer means truncation and a mismatch means corruption.
func VerifySum(resp *http.Response, body []byte) error {
	sum := resp.Trailer.Get(HeaderBodySum)
	if sum == "" {
		sum = resp.Header.Get(HeaderBodySum)
	}
	declared := sum != ""
	if !declared {
		if _, ok := resp.Trailer[HeaderBodySum]; ok {
			declared = true
		}
		for _, t := range resp.Header.Values("Trailer") {
			if strings.EqualFold(strings.TrimSpace(t), HeaderBodySum) {
				declared = true
			}
		}
	}
	if !declared {
		return nil
	}
	if sum == "" {
		return fmt.Errorf("serve: response body integrity sum declared but missing (truncated stream?)")
	}
	if got := BodySum(body); got != sum {
		return fmt.Errorf("serve: response body integrity mismatch: got %.12s…, want %.12s…", got, sum)
	}
	return nil
}

// sumResponses wraps a node's handler: every response names the node
// as X-Ptserve-Node (when it has an id), and requests carrying
// HeaderWantSum get the SHA-256 of their response body as the
// HeaderBodySum trailer. Declaring the trailer up front forces chunked
// encoding, which is what lets the sum ride after the last body byte.
func sumResponses(node string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if node != "" {
			w.Header().Set("X-Ptserve-Node", node)
		}
		if r.Header.Get(HeaderWantSum) == "" {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Trailer", HeaderBodySum)
		sw := &sumWriter{ResponseWriter: w, h: sha256.New()}
		next.ServeHTTP(sw, r)
		if sw.sum == "" {
			sw.sum = hex.EncodeToString(sw.h.Sum(nil))
		}
		w.Header().Set(HeaderBodySum, sw.sum)
	})
}

// sumWriter tees every body write through the running checksum, unless
// writeDocument handed it the whole body's sum.
type sumWriter struct {
	http.ResponseWriter
	h   hash.Hash
	sum string
}

func (sw *sumWriter) Write(p []byte) (int, error) {
	_, _ = sw.h.Write(p)
	return sw.ResponseWriter.Write(p)
}

func (sw *sumWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeDocument writes doc's bytes as the whole response body. Behind
// sumResponses the trailer takes the document's own sum, computed once
// per document, so a hop that asks for it does not hash the bytes again.
func writeDocument(w http.ResponseWriter, doc *document) {
	if sw, ok := w.(*sumWriter); ok {
		sw.sum = doc.sum()
		w = sw.ResponseWriter
	}
	_, _ = w.Write(doc.body)
}
