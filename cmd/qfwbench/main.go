// Command qfwbench regenerates the paper's evaluation: every figure and
// table, printed as aligned text series (and optionally CSV files), plus the
// three engine ablations. It runs from bench.Experiments, one row per -exp
// id. By default it uses laptop-scale "quick" sizes; pass -full for the
// paper's size lists, where configurations over the memory budget are
// reported as infeasible (the paper's red-X points). Only a -full run writes
// an experiment's BENCH_*.json record, since every committed record was
// taken at full size.
//
// Usage:
//
//	qfwbench -exp all                      # quick sizes, every experiment
//	qfwbench -exp fig3a,fig3c -full        # paper sizes for two figures
//	qfwbench -exp fig4 -csv out/           # also write CSV series
//	qfwbench -exp fit-cost                 # refit the cost calibration
//	qfwbench route [name[:n] ...]          # print the router's decisions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"qfw/internal/bench"
	"qfw/internal/cluster"
	"qfw/internal/core"
	"qfw/internal/cost"

	_ "qfw/internal/backends"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qfwbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	ids := make([]string, 0, len(bench.Experiments))
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
	}
	fs := flag.NewFlagSet("qfwbench", flag.ContinueOnError)
	var (
		expList  = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(ids, ",")+" or 'all'; fit-cost (explicit only) refits the cost calibration from recorded artifacts")
		full     = fs.Bool("full", false, "use the paper's full size lists and write each experiment's BENCH_*.json record (quick laptop sizes and no record otherwise)")
		repeats  = fs.Int("repeats", 3, "repetitions per point (paper: 3)")
		shots    = fs.Int("shots", 256, "shots per circuit execution")
		nodes    = fs.Int("nodes", 4, "Frontier-model nodes for the SLURM job")
		memGiB   = fs.Int("mem", 1, "state-vector memory budget per execution (GiB)")
		csvDir   = fs.String("csv", "", "directory to write per-experiment CSV files")
		seed     = fs.Int64("seed", 1, "base RNG seed")
		cloudLat = fs.Duration("cloud-latency", 40*time.Millisecond, "simulated cloud network latency")
		sizes    = fs.String("sizes", "", "comma-separated size override for workload figures (e.g. 5,7,9,11)")
		costFrom = fs.String("cost-from", "BENCH_kernel.json,BENCH_mps.json,BENCH_route.json", "comma-separated bench artifacts fit-cost regresses the calibration from")
		costOut  = fs.String("cost-out", "cost_fit.json", "path fit-cost writes the fitted calibration to (QFW_COST=<path> loads it)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	wanted := map[string]bool{}
	known := map[string]bool{"all": true, "fit-cost": true}
	for _, id := range ids {
		known[id] = true
	}
	for _, e := range strings.Split(*expList, ",") {
		e = strings.TrimSpace(e)
		if !known[e] {
			return fmt.Errorf("unknown experiment %q (want all, fit-cost or one of %s)", e, strings.Join(ids, ", "))
		}
		wanted[e] = true
	}

	session, err := core.Launch(core.Config{
		Machine:        cluster.Frontier(*nodes),
		MemBudgetBytes: int64(*memGiB) << 30,
		CloudLatency:   *cloudLat,
		Seed:           *seed,
	})
	if err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	defer session.Teardown()

	h := bench.NewHarness(session)
	h.Quick = !*full
	h.Repeats = *repeats
	h.Shots = *shots
	h.Seed = *seed
	if *sizes != "" {
		for _, tok := range strings.Split(*sizes, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &n); err != nil || n <= 0 {
				return fmt.Errorf("bad -sizes entry %q", tok)
			}
			h.SizeOverride = append(h.SizeOverride, n)
		}
	}

	if rest := fs.Args(); len(rest) > 0 && rest[0] == "route" {
		cases := bench.RouteMix
		if len(rest) > 1 {
			if cases, err = bench.ParseRouteCases(rest[1:]); err != nil {
				return err
			}
		}
		table, err := h.RouteDecisionTable(cases)
		if err != nil {
			return fmt.Errorf("route: %w", err)
		}
		fmt.Fprint(stdout, table)
		return nil
	}

	if wanted["fit-cost"] {
		cal, err := h.FitFromArtifacts(strings.Split(*costFrom, ",")...)
		if err != nil {
			return fmt.Errorf("fit-cost: %w", err)
		}
		if err := cost.Save(*costOut, cal); err != nil {
			return fmt.Errorf("fit-cost write: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d fitted curves)\n", *costOut, len(cal.Curves))
	}

	for _, e := range bench.Experiments {
		if !wanted["all"] && !wanted[e.ID] {
			continue
		}
		start := time.Now()
		exp, err := e.Run(h)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprint(stdout, bench.Render(exp))
		fmt.Fprintf(stdout, "(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return fmt.Errorf("csv dir: %w", err)
			}
			path := filepath.Join(*csvDir, exp.ID+".csv")
			if err := os.WriteFile(path, []byte(bench.CSV(exp)), 0o644); err != nil {
				return fmt.Errorf("csv write: %w", err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		if *full && e.Artifact != "" {
			data, err := json.MarshalIndent(exp, "", "  ")
			if err != nil {
				return fmt.Errorf("%s json: %w", e.ID, err)
			}
			if err := os.WriteFile(e.Artifact, data, 0o644); err != nil {
				return fmt.Errorf("%s json write: %w", e.ID, err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", e.Artifact)
		}
	}
	return nil
}
