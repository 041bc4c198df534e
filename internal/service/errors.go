package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"overlay"
)

// APIError is the stable JSON error body every non-2xx response
// carries: {code, reason, epoch}. Code is a machine-stable slug (the
// table in MapError pins the full set), Reason a human sentence, and
// Epoch — when the error is about a specific epoch (a departed
// endpoint, an aborted ladder) — names it; -1 inside a DepartedError
// means the initial build. Status and RetryAfter ride along for the
// transport layer and are not part of the body.
type APIError struct {
	Status     int    `json:"-"`
	Code       string `json:"code"`
	Reason     string `json:"reason"`
	Epoch      *int   `json:"epoch,omitempty"`
	RetryAfter int    `json:"-"` // seconds; >0 emits a Retry-After header
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Status, e.Code, e.Reason)
}

// apiErr builds a body without an epoch.
func apiErr(status int, code string, reason string) *APIError {
	return &APIError{Status: status, Code: code, Reason: reason}
}

// withEpoch attaches the epoch field.
func (e *APIError) withEpoch(epoch int) *APIError {
	e.Epoch = &epoch
	return e
}

// withRetryAfter attaches the backpressure hint.
func (e *APIError) withRetryAfter(seconds int) *APIError {
	e.RetryAfter = seconds
	return e
}

// MapError translates an error from the overlay/session/supervisor
// layers into its stable API form. The mapping (pinned by a table
// test) is:
//
//	*overlay.DepartedError        → 410 departed    (epoch set; -1 = initial build)
//	overlay.ErrNotMember          → 404 not_member
//	overlay.ErrInterrupted,
//	context deadline/cancel       → 504 deadline
//	overlay.ErrEvolutionDisconnected → 503 losing_draw (Retry-After: 1)
//	ErrQueueFull                  → 429 queue_full  (Retry-After: 1)
//	ErrDraining                   → 503 draining    (Retry-After: 2)
//	ErrEvicted                    → 410 evicted
//	*PanicError                   → 500 panic
//	*APIError                     → itself (handlers pre-classify 400s)
//	anything else                 → 500 internal
//
// Parse failures (ParsePlan, request bodies) and invalid epoch
// arguments never reach the fallthrough: handlers classify them as
// 400 bad_plan / bad_request / bad_epoch at the call site, where the
// distinction still exists.
func MapError(err error) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	var dep *overlay.DepartedError
	if errors.As(err, &dep) {
		return apiErr(http.StatusGone, "departed", dep.Error()).withEpoch(dep.Epoch)
	}
	if errors.Is(err, overlay.ErrNotMember) {
		return apiErr(http.StatusNotFound, "not_member", err.Error())
	}
	if errors.Is(err, overlay.ErrInterrupted) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return apiErr(http.StatusGatewayTimeout, "deadline", err.Error())
	}
	if errors.Is(err, overlay.ErrEvolutionDisconnected) {
		// The build's coin flips lost a cut: the request was fine, and
		// another seed redraws it.
		return apiErr(http.StatusServiceUnavailable, "losing_draw", err.Error()).withRetryAfter(1)
	}
	if errors.Is(err, ErrQueueFull) {
		return apiErr(http.StatusTooManyRequests, "queue_full", err.Error()).withRetryAfter(1)
	}
	if errors.Is(err, ErrDraining) {
		return apiErr(http.StatusServiceUnavailable, "draining", err.Error()).withRetryAfter(2)
	}
	if errors.Is(err, ErrEvicted) {
		return apiErr(http.StatusGone, "evicted", err.Error())
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return apiErr(http.StatusInternalServerError, "panic", pe.Error())
	}
	return apiErr(http.StatusInternalServerError, "internal", err.Error())
}

// writeError emits the stable JSON body plus transport headers.
func writeError(w http.ResponseWriter, err error) {
	ae := MapError(err)
	w.Header().Set("Content-Type", "application/json")
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfter))
	}
	w.WriteHeader(ae.Status)
	_ = json.NewEncoder(w).Encode(ae)
}

// writeJSON emits a 2xx JSON body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
