// Command qfwd runs the QFw services as a long-lived daemon: it submits the
// SLURM heterogeneous job, boots the DVM and one QPM per backend, exposes
// the DEFw RPC endpoint over TCP, and serves until interrupted — the
// deployment mode where applications connect from separate processes.
//
// Observability: -metrics-addr exposes the telemetry registry as a
// Prometheus text endpoint (/metrics) and the span ring as Chrome
// trace-event JSON (/trace); SIGUSR1 snapshots the trace to
// -trace-snapshot without stopping the daemon.
//
// Usage:
//
//	qfwd -nodes 4 -workers 8 -metrics-addr 127.0.0.1:9167
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qfw/internal/cluster"
	"qfw/internal/core"
	"qfw/internal/faults"
	"qfw/internal/serve"
	"qfw/internal/trace"
	"qfw/internal/workloads"

	_ "qfw/internal/backends"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 4, "Frontier-model nodes for the SLURM job")
		appNodes    = flag.Int("app-nodes", 1, "hetgroup-0 (application) nodes")
		workers     = flag.Int("workers", 8, "QRC worker threads per QPM (paper: 8)")
		memGiB      = flag.Int("mem", 1, "state-vector memory budget (GiB)")
		walltime    = flag.Duration("walltime", 2*time.Hour, "SLURM walltime (paper cutoff: 2h)")
		seed        = flag.Int64("seed", 1, "base RNG seed")
		cacheCap    = flag.Int("serve-cache", 4096, "serving-layer result cache entries per backend (negative disables caching)")
		quota       = flag.Int("serve-quota", 0, "default per-tenant outstanding-element quota (0: the queue cap)")
		drainGrace  = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline: stop admitting on SIGTERM and finish in-flight work up to this long")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and Chrome-trace /trace on this address (empty disables)")
		traceCap    = flag.Int("trace-cap", trace.DefaultCapacity, "span-ring capacity (older spans overwritten once full)")
		utilWindow  = flag.Duration("util-window", time.Second, "device-utilization sampling window")
		traceSnap   = flag.String("trace-snapshot", "qfwd-trace.json", "Chrome trace-event snapshot written on SIGUSR1")
		selfcheck   = flag.Bool("selfcheck", false, "run one seeded workload twice through the serving layer at startup (miss then cache hit) and print its timings")
	)
	flag.Parse()

	session, err := core.Launch(core.Config{
		Machine:        cluster.Frontier(*nodes),
		AppNodes:       *appNodes,
		Workers:        *workers,
		Walltime:       *walltime,
		UseTCP:         true,
		MemBudgetBytes: int64(*memGiB) << 30,
		Seed:           *seed,
		TraceCap:       *traceCap,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qfwd: launch: %v\n", err)
		os.Exit(1)
	}
	defer session.Teardown()

	fmt.Printf("qfwd: SLURM job %d running (hetgroup-0: %d nodes, hetgroup-1: %d nodes)\n",
		session.Job.ID, *appNodes, *nodes-*appNodes)
	fmt.Printf("qfwd: DVM %s\n", session.DVM.URI)
	fmt.Printf("qfwd: DEFw endpoint %s\n", session.Addr)
	fmt.Printf("qfwd: backends: %v\n", session.Backends())
	if sched := faults.FromEnv(); sched != nil {
		fmt.Printf("qfwd: FAULT INJECTION ARMED (%s=%s): every executor wrapped in the deterministic injector\n",
			faults.EnvVar, sched.String())
	}

	// One serving layer per backend, registered beside the raw qpm.<backend>
	// service: applications that want the cache/fair-share path
	// talk to serve.<backend>, existing clients keep the raw queue.
	srvCfg := serve.Config{CacheCap: *cacheCap, Quota: *quota}
	var servers []*serve.Server
	for _, backend := range session.Backends() {
		srv := serve.New(session.QPM(backend), srvCfg, session.Rec)
		session.RegisterService(serve.ServiceName(backend), srv)
		servers = append(servers, srv)
	}
	fmt.Printf("qfwd: serving layer up (cache %d)\n", *cacheCap)

	// Utilization time series: QRC-worker busy fractions per backend plus
	// the serving layers' dispatch-slot busy fractions.
	sampler := session.StartUtilizationSampler(*utilWindow)
	for _, srv := range servers {
		srv := srv
		sampler.Watch(trace.LabeledName("qfw_serve_utilization", "backend", srv.Backend()), srv.Slots(), srv.BusyNS)
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qfwd: metrics listen: %v\n", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := session.Rec.Metrics().WritePrometheus(w); err != nil {
				fmt.Fprintf(os.Stderr, "qfwd: /metrics: %v\n", err)
			}
		})
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := session.Rec.WriteChromeTrace(w); err != nil {
				fmt.Fprintf(os.Stderr, "qfwd: /trace: %v\n", err)
			}
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("qfwd: telemetry endpoint http://%s/metrics (trace at /trace)\n", ln.Addr())
	}

	// SIGUSR1 dumps the span ring as a Chrome trace snapshot while the
	// daemon keeps serving — load the file in chrome://tracing or Perfetto.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			if err := writeTraceSnapshot(session.Rec, *traceSnap); err != nil {
				fmt.Fprintf(os.Stderr, "qfwd: trace snapshot: %v\n", err)
				continue
			}
			st := session.Rec.Stats()
			fmt.Printf("qfwd: wrote %s (%d spans retained, %d dropped)\n", *traceSnap, st.Retained, st.Dropped)
		}
	}()

	if *selfcheck {
		if err := runSelfcheck(servers, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "qfwd: selfcheck: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Println("qfwd: serving; Ctrl-C or SIGTERM to drain and tear down")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Printf("\nqfwd: signal received, draining (up to %s)\n", *drainGrace)
	case <-session.Job.Done():
		fmt.Printf("qfwd: SLURM job ended (%s)\n", session.Job.State())
	}

	// Graceful drain: the serving layers stop admitting and flush their
	// queues first (their dispatches need live QPMs), then the QPMs quiesce
	// and finish whatever is still in flight.
	deadline := time.Now().Add(*drainGrace)
	for _, srv := range servers {
		if !srv.Drain(time.Until(deadline)) {
			fmt.Printf("qfwd: serve[%s] did not drain before the deadline\n", srv.Backend())
		}
	}
	if !session.Drain(time.Until(deadline)) {
		fmt.Println("qfwd: QPMs did not drain before the deadline; tearing down anyway")
	}
	for _, srv := range servers {
		st := srv.Stats()
		fmt.Printf("qfwd: serve[%s]: served %d (cache hits %d, shed %d, peak queue %d)\n",
			st.Backend, st.Served, st.CacheHits, st.Shed, st.PeakQueueDepth)
		srv.Close()
	}
	fmt.Println("qfwd: tearing down")
}

// writeTraceSnapshot dumps the recorder's retained spans to path as Chrome
// trace-event JSON.
func writeTraceSnapshot(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSelfcheck pushes one seeded GHZ-8 through the first serving layer
// twice: the first run executes (populating the execution metrics), the
// second must replay from the result cache — together they light up every
// metric family the /metrics endpoint exports, so a scrape smoke test has
// real values to assert on.
func runSelfcheck(servers []*serve.Server, seed int64) error {
	if len(servers) == 0 {
		return fmt.Errorf("no serving layers")
	}
	srv := servers[0]
	circ := workloads.GHZ(8)
	spec, err := core.SpecFromCircuit(circ)
	if err != nil {
		return err
	}
	opts := core.RunOptions{Shots: 256, Seed: seed}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	for i, what := range []string{"miss", "hit"} {
		results, errs, info, err := srv.Exec("selfcheck", spec, nil, opts)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if errs[0] != "" || results[0] == nil {
			return fmt.Errorf("run %d: %s", i+1, errs[0])
		}
		tm := results[0].Timings
		fmt.Printf("qfwd: selfcheck %s on %s: lookup %.3f ms | serve wait %.3f ms | queue %.3f ms | exec %.3f ms | total %.3f ms (cache hits %d)\n",
			what, srv.Backend(), tm.CacheLookupMS, tm.CoalesceWaitMS, tm.QueueMS, tm.ExecMS, tm.TotalMS, info.CacheHits)
		if i == 1 && !tm.CacheHit {
			return fmt.Errorf("second run was not served from the cache (timings %+v)", tm)
		}
	}
	return nil
}
