package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
)

func chaosClient(in *NetInjector) *http.Client {
	return &http.Client{Transport: in.Transport(nil)}
}

// TestNetInjectorDeterministic: the same seed deals the same fault sequence
// over the same request stream.
func TestNetInjectorDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true,"padding":"0123456789abcdef"}`)
	}))
	defer srv.Close()

	run := func() NetStats {
		in := NewNet(NetConfig{Seed: 99, DropRate: 0.2, DropReplyRate: 0.1, TornRate: 0.1})
		cl := chaosClient(in)
		for i := 0; i < 200; i++ {
			resp, err := cl.Get(srv.URL)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return in.NetStats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different fault sequences:\n%+v\n%+v", a, b)
	}
	if a.Drops == 0 || a.ReplyDrops == 0 || a.Torn == 0 {
		t.Fatalf("expected every configured fault class to fire over 200 requests: %+v", a)
	}
	if a.Requests != 200 {
		t.Fatalf("requests %d, want 200", a.Requests)
	}
}

// TestNetInjectorDropClassifiesRefused: a dropped request surfaces as a
// connection refusal — errors.Is sees ECONNREFUSED and ErrInjected.
func TestNetInjectorDropClassifiesRefused(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("a dropped request must never reach the server")
	}))
	defer srv.Close()

	in := NewNet(NetConfig{Seed: 1, DropRate: 1})
	_, err := chaosClient(in).Get(srv.URL)
	if err == nil {
		t.Fatal("want an injected refusal")
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("error %v must unwrap to ErrInjected and ECONNREFUSED", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || ne.Timeout() {
		t.Fatalf("refusal must be a non-timeout net.Error: %v", err)
	}
	if te, ok := ne.(interface{ Temporary() bool }); !ok || !te.Temporary() {
		t.Fatalf("an injected fault must report itself transient: %v", err)
	}
}

// TestNetInjectorReplyDropIsTimeout: the server executes, the client sees a
// timeout — the ambiguous failure.
func TestNetInjectorReplyDropIsTimeout(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	in := NewNet(NetConfig{Seed: 1, DropReplyRate: 1})
	_, err := chaosClient(in).Get(srv.URL)
	if err == nil {
		t.Fatal("want an injected timeout")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("reply drop must classify as a timeout: %v", err)
	}
	if served != 1 {
		t.Fatalf("server served %d requests, want 1 — the request must be delivered before the reply drops", served)
	}
}

// TestNetInjectorTornBody: the response arrives truncated so decoders fail
// partway.
func TestNetInjectorTornBody(t *testing.T) {
	const full = `{"ok":true,"value":"a long enough body to be torn in half"}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, full)
	}))
	defer srv.Close()

	in := NewNet(NetConfig{Seed: 1, TornRate: 1})
	resp, err := chaosClient(in).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != len(full)/2 {
		t.Fatalf("torn body has %d bytes, want %d (half of %d)", len(body), len(full)/2, len(full))
	}
}

// TestNetInjectorPartition: partitioned hosts refuse every round trip until
// healed; other hosts are untouched.
func TestNetInjectorPartition(t *testing.T) {
	okSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer okSrv.Close()
	cutSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer cutSrv.Close()

	in := NewNet(NetConfig{Seed: 1})
	cl := chaosClient(in)
	cutHost := cutSrv.Listener.Addr().String()
	in.Partition(cutHost)
	if !in.Partitioned(cutHost) {
		t.Fatal("Partitioned must report the cut host")
	}

	if _, err := cl.Get(cutSrv.URL); err == nil || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("partitioned host must refuse: %v", err)
	}
	if resp, err := cl.Get(okSrv.URL); err != nil {
		t.Fatalf("unpartitioned host must serve: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	in.Heal(cutHost)
	if resp, err := cl.Get(cutSrv.URL); err != nil {
		t.Fatalf("healed host must serve: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if st := in.NetStats(); st.PartitionDrops != 1 {
		t.Fatalf("partition drops %d, want 1", st.PartitionDrops)
	}
}

// TestNetInjectorHealAll: Heal with no arguments reconnects everything.
func TestNetInjectorHealAll(t *testing.T) {
	in := NewNet(NetConfig{})
	in.Partition("a:1", "b:2")
	in.Heal()
	if in.Partitioned("a:1") || in.Partitioned("b:2") {
		t.Fatal("Heal() must clear all partitions")
	}
}
