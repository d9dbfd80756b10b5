// Command qfwrun executes one Table-2 workload through the full QFw stack
// (SLURM het groups → DVM → QPM → backend) and prints the counts histogram
// with QFw's unified timing instrumentation.
//
// Usage:
//
//	qfwrun -workload ghz -n 12 -backend nwqsim -subbackend MPI
//	qfwrun -workload tfim -n 16 -backend aer -subbackend matrix_product_state
//	qfwrun -workload hhl -n 7 -backend ionq
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"qfw/internal/bench"
	"qfw/internal/cluster"
	"qfw/internal/core"
	"qfw/internal/workloads"

	_ "qfw/internal/backends"
)

func main() {
	var (
		workload   = flag.String("workload", "ghz", "ghz | ham | tfim | hhl")
		n          = flag.Int("n", 8, "qubit count (odd for hhl)")
		backend    = flag.String("backend", "aer", "nwqsim | aer | tnqvm | qtensor | ionq")
		subbackend = flag.String("subbackend", "", "backend-specific engine (empty = default)")
		shots      = flag.Int("shots", 1024, "measurement shots (0 = the QPM default, 1024)")
		nodes      = flag.Int("nodes", 0, "nodes for the execution placement (0 = schedule default)")
		procs      = flag.Int("procs", 0, "processes per node (0 = schedule default)")
		seed       = flag.Int64("seed", 1, "RNG seed")
		machNodes  = flag.Int("machine-nodes", 4, "Frontier-model nodes")
		top        = flag.Int("top", 8, "histogram rows to print")
		traceOut   = flag.String("trace", "", "write the run's spans as Chrome trace-event JSON to this file (load in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	circ, err := workloads.ByName(*workload, *n)
	if err != nil {
		fatal("%v", err)
	}
	pl := bench.PlacementFor(*n)
	if *nodes > 0 {
		pl.Nodes = *nodes
	}
	if *procs > 0 {
		pl.Procs = *procs
	}

	session, err := core.Launch(core.Config{
		Machine:  cluster.Frontier(*machNodes),
		Backends: []string{*backend},
		Seed:     *seed,
	})
	if err != nil {
		fatal("launch: %v", err)
	}
	defer session.Teardown()

	front, err := session.Frontend(core.Properties{Backend: *backend, Subbackend: *subbackend})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("workload %s-%d on %s/%s, placement (%d,%d), %d shots\n",
		*workload, *n, *backend, *subbackend, pl.Nodes, pl.Procs, *shots)
	fmt.Printf("circuit: %d gates, depth %d\n", len(circ.Gates), circ.Depth())

	start := time.Now()
	res, err := front.Run(circ, core.RunOptions{
		Shots: *shots, Seed: *seed, Nodes: pl.Nodes, ProcsPerNode: pl.Procs,
	})
	if err != nil {
		fatal("run: %v", err)
	}
	fmt.Printf("wall %s | queue %.2f ms | exec %.2f ms | total %.2f ms\n",
		time.Since(start).Round(time.Millisecond),
		res.Timings.QueueMS, res.Timings.ExecMS, res.Timings.TotalMS)
	if res.Timings.Attempts > 1 {
		fmt.Printf("retries: %d attempts, %.2f ms backoff\n",
			res.Timings.Attempts, res.Timings.RetryBackoffMS)
	}
	if res.TruncErr > 0 {
		fmt.Printf("MPS truncation error: %.3g\n", res.TruncErr)
	}
	if *traceOut != "" {
		if err := writeTrace(session, *traceOut); err != nil {
			fatal("trace: %v", err)
		}
		fmt.Printf("trace: wrote %s\n", *traceOut)
	}

	type kv struct {
		key string
		n   int
	}
	var rows []kv
	total := 0
	for k, v := range res.Counts {
		rows = append(rows, kv{k, v})
		total += v
	}
	if total == 0 {
		return // an analytic reply carries no histogram
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	if len(rows) > *top {
		rows = rows[:*top]
	}
	fmt.Println("counts:")
	for _, r := range rows {
		fmt.Printf("  %s  %6d  %5.1f%%\n", r.key, r.n, 100*float64(r.n)/float64(total))
	}
}

func writeTrace(session *core.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := session.Rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qfwrun: "+format+"\n", args...)
	os.Exit(1)
}
