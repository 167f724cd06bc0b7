package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"skandium/internal/journal"
	"skandium/internal/remote"
	"skandium/internal/server"
)

// daemon is one hosted skelrund: the server behind a real loopback
// listener, optionally journaled, optionally fronting two in-process
// workers that listen on loopback ports of their own.
type daemon struct {
	srv     *server.Server
	url     string
	httpd   *http.Server
	jn      *journal.Journal
	jdir    string
	cluster *remote.Cluster
	workers []*remote.Worker
	whttp   []*http.Server

	// start is the zero of the daemon's millisecond clock (created_ms and
	// friends), known from outside to within ±startSlackMS: the two clock
	// readings that bracket server.New.
	start        time.Time
	startSlackMS float64

	closed bool
}

func (d *daemon) sinceStartMS(t time.Time) float64 {
	return float64(t.Sub(d.start)) / float64(time.Millisecond)
}

// serveLoopback serves h on 127.0.0.1:0 and returns the server and its URL.
func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return hs, "http://" + ln.Addr().String(), nil
}

// startDaemon brings one workload's daemon up: listeners serving, journal
// opened, workers probed healthy. scratch is where a journal may live.
func startDaemon(w *workload, scratch string) (*daemon, error) {
	d := &daemon{}
	up := false
	defer func() {
		if !up {
			d.close()
		}
	}()
	var err error
	cfg := w.Config
	if w.Fsync != "" {
		if d.jdir, err = os.MkdirTemp(scratch, "journal-"); err != nil {
			return nil, err
		}
		if d.jn, _, err = journal.Open(d.jdir, journal.Options{Fsync: w.Fsync}); err != nil {
			return nil, err
		}
		cfg.Journal = d.jn
	}
	if w.Cluster {
		var endpoints []string
		for i := 0; i < 2; i++ {
			wk := remote.NewWorker(remote.WorkerConfig{LP: 1, MaxLP: 8})
			d.workers = append(d.workers, wk)
			hs, url, err := serveLoopback(wk.Handler())
			if err != nil {
				return nil, err
			}
			d.whttp = append(d.whttp, hs)
			endpoints = append(endpoints, url)
		}
		if d.cluster, err = remote.New(remote.Config{Workers: endpoints, Budget: 8}); err != nil {
			return nil, err
		}
		if h := d.cluster.Healthy(); h != len(endpoints) {
			return nil, fmt.Errorf("cluster: %d of %d workers healthy", h, len(endpoints))
		}
		cfg.Cluster = d.cluster
	}
	before := time.Now()
	d.srv = server.New(cfg)
	half := time.Since(before) / 2
	d.start, d.startSlackMS = before.Add(half), float64(half)/float64(time.Millisecond)
	if d.httpd, d.url, err = serveLoopback(d.srv.Handler()); err != nil {
		return nil, err
	}
	up = true
	return d, nil
}

// close stops everything the daemon started and waits for it; the journal
// directory stays for the replay probe and is removed with the scratch
// directory.
func (d *daemon) close() {
	if d.closed {
		return
	}
	d.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d.httpd != nil {
		_ = d.httpd.Shutdown(ctx)
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.cluster != nil {
		d.cluster.Close()
	}
	for _, hs := range d.whttp {
		_ = hs.Shutdown(ctx)
	}
	for _, wk := range d.workers {
		wk.Close()
	}
	if d.jn != nil {
		_ = d.jn.Close()
	}
}

// journalBytes is what the journal holds on disk: snapshot plus live log.
func (d *daemon) journalBytes() int64 {
	if d.jdir == "" {
		return 0
	}
	var total int64
	for _, name := range []string{"snapshot.json", "journal.ndjson"} {
		if st, err := os.Stat(filepath.Join(d.jdir, name)); err == nil {
			total += st.Size()
		}
	}
	return total
}

// fsKind names the filesystem holding dir and says whether it is memory
// backed; fsync cost on anything else is environmental noise, which is why
// results record it.
func fsKind(dir string) (name string, disk bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", true
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", false
	case 0x858458f6:
		return "ramfs", false
	case 0xef53:
		return "ext4", true
	case 0x58465342:
		return "xfs", true
	case 0x9123683e:
		return "btrfs", true
	case 0x794c7630:
		return "overlayfs", true
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), true
}
