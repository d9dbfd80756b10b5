// Command qfwbench regenerates the paper's evaluation: every figure and
// table, printed as aligned text series (and optionally CSV files). By
// default it uses laptop-scale "quick" sizes; pass -full for the paper's
// size lists, where configurations over the memory budget are reported as
// infeasible (the paper's red-X points).
//
// Usage:
//
//	qfwbench -exp all                      # quick sizes, every experiment
//	qfwbench -exp fig3a,fig3c -full        # paper sizes for two figures
//	qfwbench -exp fig4 -csv out/           # also write CSV series
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	var (
		expList    = flag.String("exp", "all", "comma-separated experiments: table1,table2,fig3a,fig3b,fig3c,fig3c-strong,fig3d,fig3e,fig3f,fig4,fig5,ablation-batch,ablation-fusion,ablation-dist,ablation-grad,ablation-mps,ablation-kernel,ablation-route,ablation-faults,ablation-obs or 'all'; fit-cost (explicit only) refits the cost calibration from recorded artifacts")
		full       = flag.Bool("full", false, "use the paper's full size lists (quick laptop sizes otherwise)")
		repeats    = flag.Int("repeats", 3, "repetitions per point (paper: 3)")
		shots      = flag.Int("shots", 256, "shots per circuit execution")
		nodes      = flag.Int("nodes", 4, "Frontier-model nodes for the SLURM job")
		memGiB     = flag.Int("mem", 1, "state-vector memory budget per execution (GiB)")
		csvDir     = flag.String("csv", "", "directory to write per-experiment CSV files")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		cloudLat   = flag.Duration("cloud-latency", 40*time.Millisecond, "simulated cloud network latency")
		sizes      = flag.String("sizes", "", "comma-separated size override for workload figures (e.g. 5,7,9,11)")
		fusionJSON = flag.String("fusion-json", "BENCH_fusion.json", "path for the ablation-fusion JSON record (empty disables)")
		distJSON   = flag.String("dist-json", "BENCH_dist.json", "path for the ablation-dist JSON record (empty disables)")
		gradJSON   = flag.String("grad-json", "BENCH_grad.json", "path for the ablation-grad JSON record (empty disables)")
		mpsJSON    = flag.String("mps-json", "BENCH_mps.json", "path for the ablation-mps JSON record (empty disables)")
		kernelJSON = flag.String("kernel-json", "BENCH_kernel.json", "path for the ablation-kernel JSON record (empty disables)")
		routeJSON  = flag.String("route-json", "BENCH_route.json", "path for the ablation-route JSON record (empty disables)")
		faultsJSON = flag.String("faults-json", "BENCH_faults.json", "path for the ablation-faults JSON record (empty disables)")
		obsJSON    = flag.String("obs-json", "BENCH_obs.json", "path for the ablation-obs JSON record (empty disables)")
		costFrom   = flag.String("cost-from", "BENCH_kernel.json,BENCH_mps.json,BENCH_route.json", "comma-separated bench artifacts fit-cost regresses the calibration from")
		costOut    = flag.String("cost-out", "cost_fit.json", "path fit-cost writes the fitted calibration to (QFW_COST=<path> loads it)")
	)
	flag.Parse()

	session, err := core.Launch(core.Config{
		Machine:        cluster.Frontier(*nodes),
		MemBudgetBytes: int64(*memGiB) << 30,
		CloudLatency:   *cloudLat,
		Seed:           *seed,
	})
	if err != nil {
		fatal("launch: %v", err)
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
				fatal("bad -sizes entry %q", tok)
			}
			h.SizeOverride = append(h.SizeOverride, n)
		}
	}

	if args := flag.Args(); len(args) > 0 && args[0] == "route" {
		cases := bench.RouteMix
		if len(args) > 1 {
			var err error
			if cases, err = bench.ParseRouteCases(args[1:]); err != nil {
				fatal("%v", err)
			}
		}
		table, err := h.RouteDecisionTable(cases)
		if err != nil {
			fatal("route: %v", err)
		}
		fmt.Print(table)
		return
	}

	wanted := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]

	if wanted["fit-cost"] {
		cal, err := h.FitFromArtifacts(strings.Split(*costFrom, ",")...)
		if err != nil {
			fatal("fit-cost: %v", err)
		}
		if err := cost.Save(*costOut, cal); err != nil {
			fatal("fit-cost write: %v", err)
		}
		fmt.Printf("wrote %s (%d fitted curves)\n", *costOut, len(cal.Curves))
	}

	run := func(id string, f func() (*bench.Experiment, error)) {
		if !all && !wanted[id] {
			return
		}
		start := time.Now()
		exp, err := f()
		if err != nil {
			fatal("%s: %v", id, err)
		}
		fmt.Print(bench.Render(exp))
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal("csv dir: %v", err)
			}
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(bench.CSV(exp)), 0o644); err != nil {
				fatal("csv write: %v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	run("table1", h.RunCapabilityTable)
	run("table2", func() (*bench.Experiment, error) { return h.RunBenchmarkCatalog(), nil })
	run("fig3a", func() (*bench.Experiment, error) { return h.RunWorkloadFigure("fig3a", "ghz") })
	run("fig3b", func() (*bench.Experiment, error) { return h.RunWorkloadFigure("fig3b", "ham") })
	run("fig3c", func() (*bench.Experiment, error) { return h.RunWorkloadFigure("fig3c", "tfim") })
	run("fig3c-strong", func() (*bench.Experiment, error) {
		n := 12
		procs := []int{1, 2, 4, 8}
		if *full {
			n = 22 // TFIM-28 needs 4 GiB amplitudes; 22 fits the default budget
			procs = []int{1, 2, 4, 8, 16}
		}
		return h.RunStrongScaling(n, procs)
	})
	run("fig3d", func() (*bench.Experiment, error) { return h.RunWorkloadFigure("fig3d", "hhl") })
	if all || wanted["fig3e"] || wanted["fig3f"] {
		rt, fid, err := h.RunQAOAFigure()
		if err != nil {
			fatal("fig3e/f: %v", err)
		}
		if all || wanted["fig3e"] {
			fmt.Print(bench.Render(rt))
			writeCSV(*csvDir, rt)
		}
		if all || wanted["fig3f"] {
			fmt.Print(bench.Render(fid))
			writeCSV(*csvDir, fid)
		}
	}
	run("fig4", h.RunDQAOAFigure)
	run("ablation-batch", h.RunBatchAblation)
	run("ablation-fusion", func() (*bench.Experiment, error) {
		exp, err := h.RunFusionAblation()
		if err == nil {
			writeJSON(*fusionJSON, exp)
		}
		return exp, err
	})
	run("ablation-dist", func() (*bench.Experiment, error) {
		exp, err := h.RunDistAblation()
		if err == nil {
			writeJSON(*distJSON, exp)
		}
		return exp, err
	})
	run("ablation-grad", func() (*bench.Experiment, error) {
		exp, err := h.RunGradAblation()
		if err == nil {
			writeJSON(*gradJSON, exp)
		}
		return exp, err
	})
	run("ablation-mps", func() (*bench.Experiment, error) {
		exp, err := h.RunMPSAblation()
		if err == nil {
			writeJSON(*mpsJSON, exp)
		}
		return exp, err
	})
	run("ablation-kernel", func() (*bench.Experiment, error) {
		exp, err := h.RunKernelAblation()
		if err == nil {
			writeJSON(*kernelJSON, exp)
		}
		return exp, err
	})
	run("ablation-route", func() (*bench.Experiment, error) {
		exp, err := h.RunRouteAblation()
		if err == nil {
			writeJSON(*routeJSON, exp)
		}
		return exp, err
	})
	run("ablation-faults", func() (*bench.Experiment, error) {
		exp, err := h.RunFaultsAblation()
		if err == nil {
			writeJSON(*faultsJSON, exp)
		}
		return exp, err
	})
	run("ablation-obs", func() (*bench.Experiment, error) {
		exp, err := h.RunObsAblation()
		if err == nil {
			writeJSON(*obsJSON, exp)
		}
		return exp, err
	})
	if all || wanted["fig5"] {
		cfg := bench.DQAOAConfig{QUBOSize: 16, SubQSize: 6, NSubQ: 4}
		if *full {
			cfg = bench.DQAOAConfig{QUBOSize: 40, SubQSize: 12, NSubQ: 4}
		}
		exp, _, err := h.RunTimelineFigure(cfg)
		if err != nil {
			fatal("fig5: %v", err)
		}
		fmt.Print(bench.Render(exp))
		writeCSV(*csvDir, exp)
	}
}

func writeJSON(path string, exp *bench.Experiment) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		fatal("%s json: %v", exp.ID, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal("%s json write: %v", exp.ID, err)
	}
	fmt.Printf("wrote %s\n", path)
}

func writeCSV(dir string, exp *bench.Experiment) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("csv dir: %v", err)
	}
	path := filepath.Join(dir, exp.ID+".csv")
	if err := os.WriteFile(path, []byte(bench.CSV(exp)), 0o644); err != nil {
		fatal("csv write: %v", err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qfwbench: "+format+"\n", args...)
	os.Exit(1)
}
