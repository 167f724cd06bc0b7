package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"skandium/internal/clock"
)

// Cause classifies why a worker round trip failed. The coordinator's
// failure handling branches on it: transient causes are retried by the RPC
// layer and advance the node health state machine when the retry budget is
// exhausted; CauseBusy is flow control (back off, do not distrust the
// node); CauseClient is deterministic (retrying cannot help).
type Cause int

const (
	// CauseNone means the round trip succeeded.
	CauseNone Cause = iota
	// CauseRefused is a connection refusal — the classic dead-process or
	// partitioned-host signature (ECONNREFUSED, ECONNRESET, dial errors).
	CauseRefused
	// CauseTimeout is a deadline overrun anywhere in the round trip: the
	// ambiguous failure — the worker may or may not have executed the
	// request, which is why task dispatch must be idempotent.
	CauseTimeout
	// CauseConn is any other transport-level error (broken pipe, EOF
	// mid-request, DNS).
	CauseConn
	// CauseServer is an HTTP 5xx from the worker.
	CauseServer
	// CauseBusy is HTTP 429/503: the worker shed the request under
	// admission control. Retried after the Retry-After hint; never counts
	// against the node's health.
	CauseBusy
	// CauseClient is any other HTTP 4xx: a deterministic refusal (unknown
	// blueprint, malformed frame, job mismatch). Never retried.
	CauseClient
	// CauseProto is a torn or short reply: the HTTP exchange succeeded but
	// the body did not decode to a complete response. Like a timeout, the
	// worker may have executed the request.
	CauseProto
)

// String names the cause for event records and metrics labels.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseRefused:
		return "refused"
	case CauseTimeout:
		return "timeout"
	case CauseConn:
		return "conn"
	case CauseServer:
		return "http-5xx"
	case CauseBusy:
		return "busy"
	case CauseClient:
		return "http-4xx"
	case CauseProto:
		return "proto"
	default:
		return "unknown"
	}
}

// Transient reports whether retrying the same node can plausibly succeed.
func (c Cause) Transient() bool {
	switch c {
	case CauseRefused, CauseTimeout, CauseConn, CauseServer, CauseBusy, CauseProto:
		return true
	default:
		return false
	}
}

// Ambiguous reports whether the worker may have executed the request even
// though the coordinator saw a failure — the double-execution hazard the
// worker-side dedup exists for.
func (c Cause) Ambiguous() bool {
	return c == CauseTimeout || c == CauseProto || c == CauseConn
}

// RPCError is a classified worker round-trip failure.
type RPCError struct {
	// Cause is the failure category.
	Cause Cause
	// Status is the HTTP status when the exchange completed (0 otherwise).
	Status int
	// Attempts is how many attempts were made before giving up.
	Attempts int
	// Op names the failed operation ("POST /tasks").
	Op string
	// Err is the last underlying error.
	Err error
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("%s: %s after %d attempt(s): %v", e.Op, e.Cause, e.Attempts, e.Err)
}

func (e *RPCError) Unwrap() error { return e.Err }

// CauseOf extracts the classified cause from an error (CauseConn when the
// error is not an RPCError — every transport failure is at least a
// connection-level transient).
func CauseOf(err error) Cause {
	var re *RPCError
	if errors.As(err, &re) {
		return re.Cause
	}
	if err == nil {
		return CauseNone
	}
	return ClassifyErr(err)
}

// ClassifyErr classifies a transport-level error (no HTTP status was
// produced). Timeout detection goes through net.Error so both real
// deadline overruns and injected chaos timeouts classify identically.
func ClassifyErr(err error) Cause {
	if err == nil {
		return CauseNone
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return CauseTimeout
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return CauseRefused
	}
	return CauseConn
}

// ClassifyStatus classifies a completed HTTP exchange.
func ClassifyStatus(status int) Cause {
	switch {
	case status >= 200 && status < 300:
		return CauseNone
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return CauseBusy
	case status >= 500:
		return CauseServer
	case status >= 400:
		return CauseClient
	default:
		return CauseProto
	}
}

// RPCPolicy bounds the transient-fault retry loop around one worker round
// trip: per-attempt budget with seeded exponential backoff + jitter,
// mirroring the muscle-level exec.RetryPolicy so both layers of the system
// degrade the same way. The zero value gets defaults (3 attempts, 25ms
// base, ×2 growth, 1s cap, ±20% jitter).
type RPCPolicy struct {
	// MaxAttempts is the total number of attempts (first call included).
	MaxAttempts int
	// BaseDelay is the wait before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor (values < 1 default to 2).
	Multiplier float64
	// Jitter is the relative backoff noise in [0,1].
	Jitter float64
	// Seed fixes the jitter sequence (0 uses seed 1).
	Seed int64
}

func (p RPCPolicy) withDefaults() RPCPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	return p
}

// rpc is the transient-fault HTTP layer every coordinator→worker round trip
// goes through: per-attempt timeouts come from the shared http.Client, and
// transient failures (refused / timeout / 5xx / torn replies) are retried
// with seeded exponential backoff so one dropped packet no longer kills a
// node. 429 responses honor the worker's Retry-After hint.
type rpc struct {
	client *http.Client
	clk    clock.Clock
	pol    RPCPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

func newRPC(client *http.Client, clk clock.Clock, pol RPCPolicy) *rpc {
	pol = pol.withDefaults()
	seed := pol.Seed
	if seed == 0 {
		seed = 1
	}
	return &rpc{
		client: client,
		clk:    clk,
		pol:    pol,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// backoff computes the jittered exponential wait before retry attempt k
// (1-based), floored at the server's Retry-After hint when one was given.
func (r *rpc) backoff(attempt int, retryAfter time.Duration) time.Duration {
	wait := clock.Backoff(attempt, r.pol.BaseDelay, r.pol.MaxDelay, r.pol.Multiplier, r.pol.Jitter, r.uniform)
	return max(wait, retryAfter)
}

// uniform draws the next jitter variate of the seeded sequence.
func (r *rpc) uniform() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// retryAfterHint parses a 429/503 Retry-After header (seconds form only; an
// HTTP-date hint is ignored rather than parsed — the backoff still paces).
func retryAfterHint(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// post runs one POST through the retry loop. consume reads a 2xx body; an
// error it returns classifies as CauseProto (torn reply) and is retried
// like any transient — the worker-side dedup makes the replay safe. Bodies
// are byte slices so every attempt re-sends identical content.
func (r *rpc) post(op, url, contentType string, body []byte, consume func(io.Reader) error) error {
	for attempt := 1; ; attempt++ {
		cause, status, err := r.attempt(url, contentType, body, consume)
		if cause == CauseNone {
			return nil
		}
		if !cause.Transient() || attempt >= r.pol.MaxAttempts {
			return &RPCError{Cause: cause, Status: status, Attempts: attempt, Op: op, Err: err}
		}
		var hint time.Duration
		var be *busyError
		if errors.As(err, &be) {
			hint = be.retryAfter
		}
		clock.Sleep(r.clk, r.backoff(attempt, hint))
	}
}

// busyError carries a worker's admission-control shed and its pacing hint.
type busyError struct {
	status     int
	retryAfter time.Duration
}

func (e *busyError) Error() string {
	return fmt.Sprintf("worker saturated (HTTP %d, retry after %s)", e.status, e.retryAfter)
}

// attempt performs a single classified round trip.
func (r *rpc) attempt(url, contentType string, body []byte, consume func(io.Reader) error) (Cause, int, error) {
	resp, err := r.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return ClassifyErr(err), 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	cause := ClassifyStatus(resp.StatusCode)
	switch cause {
	case CauseNone:
		if consume != nil {
			if err := consume(resp.Body); err != nil {
				return CauseProto, resp.StatusCode, err
			}
		}
		return CauseNone, resp.StatusCode, nil
	case CauseBusy:
		return CauseBusy, resp.StatusCode, &busyError{status: resp.StatusCode, retryAfter: retryAfterHint(resp)}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return cause, resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
}
