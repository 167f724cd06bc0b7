// skelrund is the multi-job autonomic skeleton daemon: it serves the
// HTTP/JSON API from internal/server, running submitted skeleton jobs
// under a machine-wide LP budget divided by the arbiter.
//
//	go run ./cmd/skelrund -addr localhost:8080
//	curl -s localhost:8080/skeletons
//	curl -s -X POST localhost:8080/jobs -d '{"skeleton":"wordcount","goal_ms":500}'
//
// With -journal-dir the daemon keeps a write-ahead job journal: every
// submission and state transition is appended to an NDJSON log, so a crash
// (or kill -9) loses nothing — on restart the same -journal-dir replays
// the log, serves finished results from the snapshot, and re-queues the
// jobs the crash interrupted.
//
// The daemon keeps the last 1000 finished jobs. Older ones leave the job
// table and the journal snapshot, and their ids answer 410 Gone; an id
// never issued answers 404.
//
// SIGINT/SIGTERM starts a graceful shutdown: new submissions are refused,
// running and queued jobs drain within -drain, then the listener closes.
// A second signal exits immediately.
//
// The flags cover deployment, capacity and the settings that callers use
// with more than one value. Periods, thresholds and pool sizes are
// constants of the packages that own them (DESIGN.md §16 lists each).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"skandium"
	"skandium/internal/journal"
	"skandium/internal/remote"
	"skandium/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	budget := flag.Int("budget", 0, "machine-wide LP budget (0 = 2×GOMAXPROCS)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
	journalDir := flag.String("journal-dir", "", "directory for the durable job journal (empty = no persistence)")
	queueMax := flag.Int("queue-max", 0, "max queued jobs before submissions are shed with 429 (0 = unbounded)")
	tenants := flag.String("tenants", "", "tenant weights as name:weight,... (e.g. alpha:3,beta:2); unlisted tenants weigh 1")
	fsyncMode := flag.String("fsync", "interval", "journal durability: always | interval | never")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	workers := flag.String("workers", "", "comma-separated skelworker endpoints; eligible jobs route to the cluster")
	clusterBudget := flag.Int("cluster-budget", 0, "cluster-wide LP budget divided across workers (0 = 4×workers)")
	hedgeAfter := flag.Duration("hedge-after", 0, "re-enqueue a claimed task stalled this long so a second node races it (0 = off)")
	policyName := flag.String("policy", "", "default adaptation policy for jobs that do not pick one (an unknown name is refused with the list; empty = paper rule)")
	flag.Parse()

	if *policyName != "" {
		if _, err := skandium.NewPolicy(*policyName, 0); err != nil {
			log.Fatalf("skelrund: %v", err)
		}
	}

	if *pprofAddr != "" {
		// The pprof handlers register on http.DefaultServeMux via the blank
		// import; serve them on their own listener so profiling never shares
		// a port (or a mux) with the job API.
		go func() {
			log.Printf("skelrund: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("skelrund: pprof server: %v", err)
			}
		}()
	}

	var (
		jn        *journal.Journal
		recovered []journal.JobState
	)
	if *journalDir != "" {
		policy, err := journal.ParseFsync(*fsyncMode)
		if err != nil {
			log.Fatalf("skelrund: %v", err)
		}
		jn, recovered, err = journal.Open(*journalDir, journal.Options{Fsync: policy})
		if err != nil {
			log.Fatalf("skelrund: open journal: %v", err)
		}
		if n := len(recovered); n > 0 {
			requeued := 0
			for _, st := range recovered {
				if !st.Terminal() {
					requeued++
				}
			}
			log.Printf("skelrund: journal %s: recovered %d job(s), re-queued %d interrupted", *journalDir, n, requeued)
		}
	}

	tenantWeights, err := parseTenants(*tenants)
	if err != nil {
		log.Fatalf("skelrund: %v", err)
	}

	var cluster *remote.Cluster
	if *workers != "" {
		endpoints := strings.Split(*workers, ",")
		for i := range endpoints {
			endpoints[i] = strings.TrimSpace(endpoints[i])
		}
		var err error
		cluster, err = remote.New(remote.Config{
			Workers:    endpoints,
			Budget:     *clusterBudget,
			HedgeAfter: *hedgeAfter,
		})
		if err != nil {
			log.Fatalf("skelrund: cluster: %v", err)
		}
		defer cluster.Close()
		log.Printf("skelrund: cluster coordinator over %d worker(s), budget %d (%d healthy)",
			len(endpoints), cluster.Budget(), cluster.Healthy())
	}

	srv := server.New(server.Config{
		Budget:        *budget,
		DefaultPolicy: *policyName,
		Journal:       jn,
		Recover:       recovered,
		QueueMax:      *queueMax,
		Tenants:       tenantWeights,
		Cluster:       cluster,
	})
	httpd := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpd.ListenAndServe() }()
	log.Printf("skelrund: serving on http://%s (budget %d)", *addr, srv.Budget())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatalf("skelrund: %v", err)
	case sig := <-sigc:
		log.Printf("skelrund: %v — draining (deadline %v; signal again to force quit)", sig, *drain)
	}

	go func() {
		sig := <-sigc
		log.Printf("skelrund: %v — forcing exit", sig)
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("skelrund: drain cut short: %v", err)
	} else {
		log.Printf("skelrund: all jobs drained")
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer shutCancel()
	if err := httpd.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("skelrund: http shutdown: %v", err)
	}
	srv.Close()
	if jn != nil {
		if err := jn.Close(); err != nil {
			log.Printf("skelrund: close journal: %v", err)
		}
	}
}

// parseTenants parses the -tenants flag: "name:weight,name:weight,...".
// A bare name (no colon) gets weight 1.
func parseTenants(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasW := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-tenants: empty tenant name in %q", part)
		}
		w := 1
		if hasW {
			var err error
			w, err = strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil || w < 1 {
				return nil, fmt.Errorf("-tenants: bad weight %q for %s (want integer ≥ 1)", weightStr, name)
			}
		}
		out[name] = w
	}
	return out, nil
}
