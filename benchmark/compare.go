//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names, and for end-to-end metrics the direction and the bound -compare
// applies. The file is the single source of both.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const benchFile = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadReports reads every untraced report line of a file of benchmark
// output (result lines and anything that is not JSON are skipped), grouped
// by workload.
func loadReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rep report
		if json.Unmarshal([]byte(line), &rep) != nil || rep.Workload == "" || rep.Trace {
			continue
		}
		out[rep.Workload] = append(out[rep.Workload], rep)
	}
	return out, sc.Err()
}

const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictMissing    = "MISSING"
)

// row is one (workload, metric) verdict.
type row struct {
	Workload, Metric string
	Old, New         float64 // medians over the runs of each file
	Worse            float64 // change in the worse direction as a share of Old; negative is better
	Bound, Spread    float64
	Verdict          string
}

func values(reps []report, pick func(report) (float64, bool)) []float64 {
	var v []float64
	for _, r := range reps {
		if x, ok := pick(r); ok {
			v = append(v, x)
		}
	}
	return v
}

// minRuns is how many values it takes before anything is concluded from
// how they differ from one another.
const minRuns = 4

// timeDerived metrics move with the op rate, so the within-run segment
// spread is a floor on their noise; set-up time and peak memory do not.
func timeDerived(name string) bool { return name != "setup_s" && name != "server_peak_rss_mb" }

// compareReports applies each end-to-end bound per (metric, workload). A
// pair is a regression when the new median is worse than the old by more
// than the bound. Otherwise it is unresolved, not ok, when the spread the
// files themselves report (across runs when there are at least minRuns,
// else within runs) is wider than the bound — unless, with at least minRuns
// a side, every new run is better than every old run. A higher fail_ratio is always a regression.
func compareReports(spec *benchSpec, old, cur map[string][]report) []row {
	var rows []row
	for _, w := range spec.Workloads {
		o, n := old[w.Name], cur[w.Name]
		if len(o) == 0 || len(n) == 0 {
			rows = append(rows, row{Workload: w.Name, Metric: "*", Verdict: verdictMissing})
			continue
		}
		extra := func(name string) func(report) (float64, bool) {
			return func(r report) (float64, bool) { m, ok := r.Extra[name]; return m.Value, ok }
		}
		segSpread := max(median(values(o, extra("segment_spread"))), median(values(n, extra("segment_spread"))))
		for _, ms := range spec.EndToEnd {
			pick := func(r report) (float64, bool) { m, ok := r.Metrics[ms.Name]; return m.Value, ok }
			ov, nv := values(o, pick), values(n, pick)
			if len(ov) == 0 || len(nv) == 0 {
				rows = append(rows, row{Workload: w.Name, Metric: ms.Name, Verdict: verdictMissing})
				continue
			}
			r := row{Workload: w.Name, Metric: ms.Name, Old: median(ov), New: median(nv), Bound: ms.Bound, Verdict: verdictOK}
			sign := 1.0
			if ms.Better == "higher" {
				sign = -1
			}
			if r.Old != 0 {
				r.Worse = sign * (r.New - r.Old) / r.Old
			}
			r.Spread = max(iqrShare(ov), iqrShare(nv))
			if r.Spread == 0 && timeDerived(ms.Name) {
				r.Spread = segSpread
			}
			// Every new run better than every old one: for "lower" the
			// largest new value is below the smallest old one, for "higher"
			// the smallest new value is above the largest old one.
			so, sn := sortedCopy(ov), sortedCopy(nv)
			allBetter := sn[len(sn)-1] < so[0]
			if ms.Better == "higher" {
				allBetter = sn[0] > so[len(so)-1]
			}
			allBetter = allBetter && len(so) >= minRuns && len(sn) >= minRuns
			switch {
			case r.Worse > r.Bound:
				r.Verdict = verdictRegression
			case r.Spread > r.Bound && !allBetter:
				r.Verdict = verdictUnresolved
			}
			rows = append(rows, r)
		}
		fr := row{Workload: w.Name, Metric: "fail_ratio", Verdict: verdictOK,
			Old: median(values(o, extra("fail_ratio"))), New: median(values(n, extra("fail_ratio")))}
		if fr.New > fr.Old {
			fr.Verdict = verdictRegression
		}
		rows = append(rows, fr)
	}
	return rows
}

// compareFiles prints one row per (metric, workload) pair and returns the
// process exit code: 1 on any regression or missing pair, 2 when the inputs
// cannot be read.
func compareFiles(oldPath, newPath string, w io.Writer) int {
	spec, err := loadSpec(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sides [2]map[string][]report
	for i, path := range []string{oldPath, newPath} {
		sides[i], err = loadReports(path)
		if err == nil && len(sides[i]) == 0 {
			err = fmt.Errorf("%s holds no report lines", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	rows := compareReports(spec, sides[0], sides[1])
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by (of old)\tbound\tspread\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Worse, 100*r.Bound, 100*r.Spread, r.Verdict)
		if r.Verdict == verdictRegression || r.Verdict == verdictMissing {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}
