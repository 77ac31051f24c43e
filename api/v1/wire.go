// Package apiv1 is the versioned wire schema of the cgserve query
// service. It is deliberately dependency-free: every field is a plain
// JSON-friendly type, strategies and algorithms travel as their stable
// slug strings (the commongraph ParseStrategy / AlgorithmByName
// vocabularies), and 64-bit checksums travel as hex strings so non-Go
// clients never lose precision to float64 JSON numbers. The serve layer
// converts to and from the rich in-process types at the boundary; v1
// messages never change incompatibly — breaking changes get a v2.
package apiv1

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Window selects the inclusive snapshot range [From, To] of the served
// evolving graph.
type Window struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// RunRequest asks the service to evaluate one query.
type RunRequest struct {
	// Algorithm names the vertex program: "BFS", "SSSP", "SSWP", "SSNP"
	// or "Viterbi" (case-insensitive).
	Algorithm string `json:"algorithm"`
	// Source is the query's source vertex.
	Source int `json:"source"`
	// Window bounds the evaluated snapshots. Omitted (nil), the service
	// evaluates its maintained window — the common case against a live
	// watcher or follower.
	Window *Window `json:"window,omitempty"`
	// Strategy is a ParseStrategy slug ("direct-hop",
	// "work-sharing-parallel", "dhp", ...). Omitted, the service default
	// applies. KickStarter and Independent are valid here only when the
	// service fronts a whole evolving graph rather than a maintained
	// window.
	Strategy string `json:"strategy,omitempty"`
	// KeepValues returns full per-vertex values for every snapshot —
	// large; off by default.
	KeepValues bool `json:"keep_values,omitempty"`
	// OptimalSchedule is accepted and ignored: every Work-Sharing schedule
	// is the exact one, so there is nothing left to select. It stays on
	// the wire so requests written against earlier servers keep decoding.
	OptimalSchedule bool `json:"optimal_schedule,omitempty"`
	// Trace, when set, is a 16-hex-digit trace ID the evaluation joins,
	// linking the server-side spans to the caller's trace.
	Trace string `json:"trace,omitempty"`
}

// Checksum is a 64-bit value fingerprint that marshals as a fixed-width
// hex string ("00ab54a98ceb1f0a"), never as a JSON number.
type Checksum uint64

// MarshalJSON renders the checksum as a quoted fixed-width hex string.
func (c Checksum) MarshalJSON() ([]byte, error) {
	return []byte(`"` + fmt.Sprintf("%016x", uint64(c)) + `"`), nil
}

// UnmarshalJSON accepts the quoted hex form (leading zeros optional).
func (c *Checksum) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("apiv1: checksum must be a hex string: %w", err)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("apiv1: bad checksum %q: %w", s, err)
	}
	*c = Checksum(v)
	return nil
}

// Snapshot is the query outcome at one snapshot.
type Snapshot struct {
	// Index is the absolute snapshot index in the evolving graph.
	Index int `json:"index"`
	// Reached counts vertices with a non-identity value.
	Reached int `json:"reached"`
	// Checksum fingerprints the full value array.
	Checksum Checksum `json:"checksum"`
	// Values holds per-vertex results when the request set keep_values.
	Values []int64 `json:"values,omitempty"`
}

// RunResult is the service's answer to a RunRequest.
type RunResult struct {
	// Strategy is the slug of the strategy that actually ran.
	Strategy string `json:"strategy"`
	// Window is the evaluated snapshot range (the maintained window when
	// the request omitted one).
	Window Window `json:"window"`
	// Generation is the serving window's commit generation the result
	// was computed at; it is part of the service's cache key, so two
	// equal generations mean byte-identical results.
	Generation uint64 `json:"generation"`
	// Cached reports a result-cache hit (no evaluation ran).
	Cached bool `json:"cached,omitempty"`
	// Stale marks a follower-served result beyond its staleness budget.
	Stale bool `json:"stale,omitempty"`
	// Degraded marks that a schedule subtree failed and its snapshots
	// were recomputed via the fallback path (values remain exact).
	Degraded bool `json:"degraded,omitempty"`
	// Trace is the evaluation's trace ID (16 hex digits) for
	// /debug/trace?id= lookups.
	Trace string `json:"trace,omitempty"`
	// Snapshots holds one entry per evaluated snapshot, in window order.
	Snapshots []Snapshot `json:"snapshots"`
}

// Error codes of the v1 protocol, stable across releases.
const (
	// CodeBadRequest: the request failed validation (unknown algorithm,
	// bad window, unparseable strategy).
	CodeBadRequest = "bad_request"
	// CodeQuotaExhausted: the tenant's token bucket is empty (HTTP 429).
	CodeQuotaExhausted = "quota_exhausted"
	// CodeQueueFull: the admission queue is at capacity (HTTP 429).
	CodeQueueFull = "queue_full"
	// CodeStale: the follower is beyond its staleness budget.
	CodeStale = "stale"
	// CodeCanceled: the caller went away before the evaluation finished.
	CodeCanceled = "canceled"
	// CodeInternal: the evaluation failed.
	CodeInternal = "internal"
)

// Error is the wire form of every non-2xx response body.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// RetryAfterMillis, when positive, is the backoff the service
	// suggests (it mirrors the Retry-After header on 429s).
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
	// Trace is the failed request's trace ID, when one was assigned.
	Trace string `json:"trace,omitempty"`
	// Status is the HTTP status the error travelled with. It is not
	// serialized — the transport carries it — but Dial's client fills it
	// in for callers that branch on classes of failure.
	Status int `json:"-"`
}

// Error renders the wire error as a Go error string.
func (e *Error) Error() string {
	if e.RetryAfterMillis > 0 {
		return fmt.Sprintf("apiv1: %s: %s (retry after %dms)", e.Code, e.Message, e.RetryAfterMillis)
	}
	return fmt.Sprintf("apiv1: %s: %s", e.Code, e.Message)
}
