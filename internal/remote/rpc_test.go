package remote

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"skandium/internal/chaos"
	"skandium/internal/clock"
)

func TestClassifyStatus(t *testing.T) {
	cases := []struct {
		status int
		want   Cause
	}{
		{200, CauseNone}, {204, CauseNone},
		{429, CauseBusy}, {503, CauseBusy},
		{500, CauseServer}, {502, CauseServer},
		{400, CauseClient}, {404, CauseClient}, {409, CauseClient}, {422, CauseClient},
	}
	for _, c := range cases {
		if got := ClassifyStatus(c.status); got != c.want {
			t.Errorf("ClassifyStatus(%d) = %s, want %s", c.status, got, c.want)
		}
	}
}

func TestClassifyErr(t *testing.T) {
	if got := ClassifyErr(syscall.ECONNREFUSED); got != CauseRefused {
		t.Errorf("ECONNREFUSED classified %s, want refused", got)
	}
	if got := ClassifyErr(fmt.Errorf("wrap: %w", syscall.ECONNRESET)); got != CauseRefused {
		t.Errorf("wrapped ECONNRESET classified %s, want refused", got)
	}
	// Injected chaos faults must classify exactly like real ones.
	timeout := &chaos.InjectedNetError{Op: "read", Host: "x", IsTimeout: true}
	if got := ClassifyErr(timeout); got != CauseTimeout {
		t.Errorf("injected timeout classified %s, want timeout", got)
	}
	refused := &chaos.InjectedNetError{Op: "dial", Host: "x", Refused: true}
	if got := ClassifyErr(refused); got != CauseRefused {
		t.Errorf("injected refusal classified %s, want refused", got)
	}
	if got := ClassifyErr(io.ErrUnexpectedEOF); got != CauseConn {
		t.Errorf("plain transport error classified %s, want conn", got)
	}
}

func TestCauseTransitivity(t *testing.T) {
	for _, c := range []Cause{CauseRefused, CauseTimeout, CauseConn, CauseServer, CauseBusy, CauseProto} {
		if !c.Transient() {
			t.Errorf("%s must be transient", c)
		}
	}
	if CauseClient.Transient() {
		t.Error("http-4xx must not be transient")
	}
	for _, c := range []Cause{CauseTimeout, CauseProto, CauseConn} {
		if !c.Ambiguous() {
			t.Errorf("%s must be ambiguous (worker may have executed)", c)
		}
	}
	if CauseRefused.Ambiguous() {
		t.Error("a refused connection is unambiguous: the request never arrived")
	}
}

// TestRPCRetriesTransient: a server failing twice with 500 then succeeding
// is absorbed by the default 3-attempt budget.
func TestRPCRetriesTransient(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	r := newRPC(srv.Client(), clock.System, RPCPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	err := r.post("POST /x", srv.URL, "application/json", []byte("{}"), nil)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestRPCExhaustsBudget: persistent failure surfaces as a classified
// RPCError carrying the attempt count.
func TestRPCExhaustsBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer srv.Close()

	r := newRPC(srv.Client(), clock.System, RPCPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	err := r.post("POST /x", srv.URL, "application/json", nil, nil)
	var re *RPCError
	if !errors.As(err, &re) {
		t.Fatalf("error %v, want *RPCError", err)
	}
	if re.Cause != CauseServer || re.Attempts != 2 || re.Status != http.StatusBadGateway {
		t.Fatalf("RPCError %+v, want cause http-5xx, 2 attempts, status 502", re)
	}
}

// TestRPCClientErrorNotRetried: 4xx is deterministic — exactly one attempt.
func TestRPCClientErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such thing", http.StatusUnprocessableEntity)
	}))
	defer srv.Close()

	r := newRPC(srv.Client(), clock.System, RPCPolicy{})
	err := r.post("POST /x", srv.URL, "application/json", nil, nil)
	if CauseOf(err) != CauseClient {
		t.Fatalf("cause %s, want http-4xx", CauseOf(err))
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want exactly 1 (no retry on 4xx)", calls.Load())
	}
}

// TestRPCTornReplyRetried: a consume error (short body) classifies as proto
// and is retried against the same endpoint.
func TestRPCTornReplyRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()

	r := newRPC(srv.Client(), clock.System, RPCPolicy{BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	err := r.post("POST /x", srv.URL, "application/json", nil, func(io.Reader) error {
		if calls.Load() < 2 {
			return fmt.Errorf("reply torn")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

// TestRPCHonorsRetryAfter: a 429's Retry-After floors the backoff and the
// terminal error carries the busy cause with the hint.
func TestRPCHonorsRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "saturated", http.StatusTooManyRequests)
	}))
	defer srv.Close()

	clk := clock.NewVirtual(clock.Epoch)
	r := newRPC(srv.Client(), clk, RPCPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Jitter: -1})
	// The retry sleeps through the virtual clock; advance it from the side
	// so the post returns.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(100 * time.Millisecond)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	err := r.post("POST /x", srv.URL, "application/json", nil, nil)
	close(stop)
	if CauseOf(err) != CauseBusy {
		t.Fatalf("cause %s, want busy", CauseOf(err))
	}
	var be *busyError
	if !errors.As(err, &be) || be.retryAfter != time.Second || !strings.Contains(be.Error(), "HTTP 429") {
		t.Fatalf("error %v, want busyError with 1s Retry-After", err)
	}
	// The backoff between the two attempts must have been floored at the
	// Retry-After hint, not the 1ms base delay.
	if got := clk.Now().Sub(clock.Epoch); got < time.Second {
		t.Fatalf("virtual clock advanced only %v, want >= the 1s Retry-After floor", got)
	}
}

// TestBackoffGrowsAndCaps: the jittered exponential stays inside its
// envelope and respects MaxDelay.
func TestBackoffGrowsAndCaps(t *testing.T) {
	r := newRPC(nil, clock.System, RPCPolicy{
		MaxAttempts: 10, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.2, Seed: 7,
	})
	for attempt := 1; attempt <= 8; attempt++ {
		want := float64(10*time.Millisecond) * float64(int(1)<<(attempt-1))
		if want > float64(80*time.Millisecond) {
			want = float64(80 * time.Millisecond)
		}
		got := r.backoff(attempt, 0)
		lo, hi := time.Duration(want*0.8), time.Duration(want*1.2)
		if got < lo || got > hi {
			t.Fatalf("backoff(%d) = %v, want within [%v, %v]", attempt, got, lo, hi)
		}
	}
	if got := r.backoff(1, 300*time.Millisecond); got != 300*time.Millisecond {
		t.Fatalf("backoff with Retry-After floor = %v, want 300ms", got)
	}
}

// TestBackoffDeterministicPerSeed: same seed, same jitter sequence.
func TestBackoffDeterministicPerSeed(t *testing.T) {
	mk := func() []time.Duration {
		r := newRPC(nil, clock.System, RPCPolicy{BaseDelay: time.Millisecond, Seed: 42})
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = r.backoff(i+1, 0)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded backoff diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
