//go:build linux

// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/qfwd, boots it as a separate process with its default flags, drives it
// closed-loop over TCP DEFw exactly as an application in hetgroup-0 would
// (defw.Dial → core.Frontend / serve.Client / qaoa.Solve), checks every
// reply, and prints the metrics BENCHMARK.json names. See README.md.
//
//	go run ./benchmark --workload rpc_small --seed 1 --seconds 8 --trace 0
//	go run ./benchmark --workload rpc_small --seed 1 --seconds 8 --trace 1
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the driver's format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: the same run with everything a reader (or
// -compare) needs to interpret the numbers.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Ops      int               `json:"ops"`
	Samples  int               `json:"samples"`
	Error    string            `json:"error,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// Extra holds the unbounded companions of the end-to-end metrics:
	// fail_ratio, latency_p99_ms where it has enough samples, the timed wall,
	// segment_spread, the inter-quartile spread of the op rate over the ten
	// groups of the timed phase, the machine's median speed factor, and the
	// raw_ values: the time-derived metrics as the clock read them, before
	// they were brought to the reference speed.
	Extra map[string]metric `json:"extra,omitempty"`
	// Segments is the op rate (op/s) of each group of the timed phase, at the
	// reference speed.
	Segments []float64 `json:"segment_ops_per_s,omitempty"`
	// Speed is the machine's speed factor in each of those groups (calib.go):
	// the reference kernel's cost there over its nominal cost.
	Speed []float64 `json:"segment_speed,omitempty"`
	// Ladder is the traced run's per-class layer ladder.
	Ladder  []*classLadder `json:"ladder,omitempty"`
	Machine machine        `json:"machine"`
}

type machine struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	AVX2       bool     `json:"avx2"`
	FMA        bool     `json:"fma"`
	GoVersion  string   `json:"go_version"`
	GitSHA     string   `json:"git_sha"`
	Env        []string `json:"env_pins"`
	QfwdFlags  string   `json:"qfwd_flags"`
}

func machineInfo(traced bool) machine {
	m := machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: "unknown", Env: pinnedEnv, QfwdFlags: "defaults",
	}
	if traced {
		m.QfwdFlags = "defaults + -metrics-addr 127.0.0.1:0"
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			k, v, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(k) {
			case "model name":
				if m.CPUModel == "" {
					m.CPUModel = strings.TrimSpace(v)
				}
			case "flags":
				f := " " + v + " "
				m.AVX2, m.FMA = strings.Contains(f, " avx2 "), strings.Contains(f, " fma ")
			}
		}
	}
	// A driver's checkout is not a git repository; the sha is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	return m
}

// hardStop bounds the run of one workload: past it the daemon is stopped and
// the benchmark exits non-zero without a result.
const hardStop = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run (see BENCHMARK.json), or all of them in turn")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 8, "length of the timed phase the op count is sized for")
		trace   = flag.Int("trace", 0, "1: traced run that reports the per-layer metrics instead of the end-to-end ones")
		compare = flag.Bool("compare", false, "compare two files of report lines: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if os.Getenv("QFW_FAULTS") != "" {
		fatal(fmt.Errorf("QFW_FAULTS is set: the benchmark measures the fault-free path only"))
	}
	run := allWorkloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		run = []workload{*w}
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d out of range [1, 60]", *seconds))
	}
	// The in-process oracle and ladder run under the same pins as the daemon.
	for _, kv := range pinnedEnv {
		k, v, _ := strings.Cut(kv, "=")
		os.Setenv(k, v)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for i := range run {
		r := &runner{w: &run[i], seed: *seed, seconds: *seconds, traced: *trace != 0}
		// Every exit path stops the daemon and waits for it: normal return,
		// an error, a signal, and the hard stop.
		var err error
		done := make(chan error, 1)
		go func() { done <- r.run() }()
		select {
		case err = <-done:
		case s := <-sig:
			err = fmt.Errorf("interrupted by %v", s)
		case <-time.After(hardStop):
			err = fmt.Errorf("hard stop after %s", hardStop)
		}
		r.cleanup()
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// emit prints the report line and then the result line.
func emit(rep report, res result) error {
	for _, v := range []any{rep, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}
