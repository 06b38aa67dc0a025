// Command hiddenserver serves a CSV table as a hidden database: a top-k
// keyword-search HTTP API with optional request-rate limiting, so crawls
// can be exercised against a network interface exactly like a real deep
// website.
//
// Usage:
//
//	hiddenserver -table hidden.csv -k 50 -rank-column 3 -addr :8080 \
//	             -rate 10 -burst 100
//
// Endpoints:
//
//	GET /search?q=thai+noodle    top-k results as JSON
//	GET /healthz                 liveness
//	GET /stats                   request counters (legacy summary)
//	GET /metrics                 Prometheus text format (docs/METRICS.md)
//	GET /debug/vars              expvar: live query counters, latency
//	                             percentiles, memstats (JSON)
//	GET /debug/pprof/            pprof profiles (CPU, heap, goroutine, …)
//
// The debug endpoints serve the production-tuning loop: watch
// /debug/vars while a crawl fleet hammers /search, pull a CPU profile
// when latency percentiles move. Disable with -debug=false on exposed
// deployments.
//
// -fault-profile turns the server into a chaos fixture: it injects
// deterministic misbehaviour (504 timeouts, 503 outages, 429 bursts,
// silently truncated and stale pages) per a named preset or key=value
// spec, seeded by -fault-seed so every drill replays identically. See
// docs/OPERATIONS.md ("Fault injection") for the grammar and the client
// side of the drill.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/federate"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/obs/promexport"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

func main() {
	var (
		tablePath = flag.String("table", "", "CSV file with the hidden table (header row first)")
		k         = flag.Int("k", 50, "top-k result limit")
		rankCol   = flag.Int("rank-column", -1, "numeric column to rank by (desc); -1 = hash ranking")
		ranked    = flag.Bool("non-conjunctive", false, "Yelp-style any-keyword matching")
		addr      = flag.String("addr", ":8080", "listen address")
		rate      = flag.Float64("rate", 0, "requests per second refill (0 = unlimited)")
		burst     = flag.Int("burst", 100, "rate-limiter burst capacity")
		debug     = flag.Bool("debug", true, "serve /debug/vars (expvar) and /debug/pprof endpoints")
		faultSpec = flag.String("fault-profile", "", "inject deterministic faults: a preset ("+
			strings.Join(deepweb.FaultPresetNames(), "|")+") or a key=value spec, e.g. timeout=0.05,truncate=0.1")
		faultSeed = flag.Uint64("fault-seed", 1, "seed of the fault schedule (same seed+profile ⇒ same faults)")
		faultLat  = flag.Duration("fault-latency", 0, "extra latency added to every faulted attempt")
		profiles  = flag.String("profiles", "", "serve several interfaces from one process: specs separated by ';', key=value fields by ',' — "+
			"e.g. \"name=a,hidden=h1.csv,k=10;name=b,hidden=h2.csv,k=50,faults=transient10,rate=5\"; each mounts under /<name>/")
	)
	flag.Parse()
	if (*tablePath == "") == (*profiles == "") {
		fatal(fmt.Errorf("exactly one of -table and -profiles is required"))
	}
	if *k <= 0 {
		fatal(fmt.Errorf("-k must be >= 1"))
	}
	if *rate < 0 {
		fatal(fmt.Errorf("-rate must be >= 0"))
	}
	if *burst <= 0 {
		fatal(fmt.Errorf("-burst must be >= 1"))
	}

	tk := tokenize.New()
	o := obs.New()

	// Multi-profile mode: one process serves n independent interfaces,
	// each with its own table, k, ranking, fault profile, and server-side
	// rate limit, mounted under /<name>/ — the fixture a federated crawl
	// points its url= specs at.
	if *profiles != "" {
		specs, err := federate.ParseSpecs(*profiles)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		for i, sp := range specs {
			if sp.Name == "" {
				sp.Name = fmt.Sprintf("h%d", i+1)
			}
			if sp.URL != "" {
				fatal(fmt.Errorf("profile %q: url= makes no sense server-side; give hidden=", sp.Name))
			}
			backend, table, err := sp.BuildBackend(tk, o)
			if err != nil {
				fatal(err)
			}
			var limiter *deepweb.Bucket
			if sp.Rate > 0 {
				limiter = deepweb.NewBucket(sp.Burst, sp.Rate)
			}
			psrv := httpapi.NewServer(backend, tk, limiter)
			psrv.SetObs(o)
			mux.Handle("/"+sp.Name+"/", http.StripPrefix("/"+sp.Name, psrv.Handler()))
			fmt.Printf("profile %s: %d records (k=%d) at /%s/", sp.Name, table.Len(), sp.K, sp.Name)
			if sp.Faults != "" {
				fmt.Printf(" faults=%s seed=%d", strings.ReplaceAll(sp.Faults, ",", "+"), sp.FaultSeed)
			}
			fmt.Println()
		}
		serve(*addr, *debug, o, mux)
		return
	}

	f, err := os.Open(*tablePath)
	if err != nil {
		fatal(err)
	}
	table, err := relational.ReadCSV("hidden", f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	rank := hidden.RankByHash(1)
	if *rankCol >= 0 {
		rank = hidden.RankByNumericColumn(*rankCol)
	}
	mode := hidden.ModeConjunctive
	if *ranked {
		mode = hidden.ModeRanked
	}
	db := hidden.New(table, tk, *k, rank, mode)

	var limiter *deepweb.Bucket
	if *rate > 0 {
		limiter = deepweb.NewBucket(*burst, *rate)
	}
	var searcher deepweb.Searcher = db
	if *faultSpec != "" {
		p, err := deepweb.ParseFaultProfile(*faultSpec)
		if err != nil {
			fatal(err)
		}
		p.Seed = *faultSeed
		p.Latency = *faultLat
		searcher = deepweb.NewFaulty(searcher, p).WithObs(o)
		fmt.Fprintf(os.Stderr, "fault injection on: %s (seed %d)\n", *faultSpec, *faultSeed)
	}
	srv := httpapi.NewServer(searcher, tk, limiter)
	srv.SetObs(o)

	fmt.Printf("serving %d records (k=%d)\n", table.Len(), *k)
	serve(*addr, *debug, o, srv.Handler())
}

// serve runs the HTTP server with the debug endpoints and graceful
// shutdown, blocking until SIGINT/SIGTERM drains it.
func serve(addr string, debug bool, o *obs.Obs, handler http.Handler) {
	if debug {
		// Live query counters under /debug/vars, CPU/heap/goroutine
		// profiles under /debug/pprof/. Registered on an explicit mux —
		// nothing leaks onto http.DefaultServeMux.
		expvar.Publish("hiddenserver", expvar.Func(func() any { return o.Snapshot() }))
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/metrics", promexport.Handler(func(c *promexport.Collection) { c.CollectObs(o) }))
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	// Defensive server limits: a stalled or malicious client must not pin
	// a connection (and its goroutine) forever, and headers are bounded so
	// a garbage request cannot balloon memory. WriteTimeout leaves room
	// for the slowest search plus injected fault latency.
	hs := &http.Server{
		Handler:        handler,
		ReadTimeout:    10 * time.Second,
		WriteTimeout:   30 * time.Second,
		IdleTimeout:    2 * time.Minute,
		MaxHeaderBytes: 1 << 20,
	}

	// Bind explicitly before announcing readiness, and print the bound
	// address: with -addr :0 the kernel picks a free port and callers
	// (tests, scripts) read it from this line instead of racing to
	// reserve one themselves.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, drain
	// in-flight searches, then exit.
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "shutting down…")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		close(done)
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hiddenserver:", err)
	os.Exit(1)
}
