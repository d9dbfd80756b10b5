package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Render formats an experiment as an aligned text report: one block per
// series, one row per point, with the (#N,#P) or (subqsize,nsubq) secondary
// label and the paper's red-X convention for infeasible configurations.
func Render(e *Experiment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	if e.Notes != "" {
		fmt.Fprintf(&b, "   %s\n", e.Notes)
	}
	for _, s := range e.Series {
		fmt.Fprintf(&b, "\n%s\n", s.Label)
		for _, p := range s.Points {
			switch {
			case p.Infeasible:
				fmt.Fprintf(&b, "  %4d %-8s  X (infeasible: %s)\n", p.X, p.Placement, firstLine(p.Err))
			case p.Err != "":
				fmt.Fprintf(&b, "  %4d %-8s  ERROR: %s\n", p.X, p.Placement, firstLine(p.Err))
			case p.Fidelity != 0 && p.RuntimeMS == 0:
				fmt.Fprintf(&b, "  %4d %-8s  fidelity %.2f%%\n", p.X, p.Placement, p.Fidelity)
			case p.Fidelity != 0:
				fmt.Fprintf(&b, "  %4d %-8s  %10.2f ms ± %-8.2f fidelity %.2f%%\n", p.X, p.Placement, p.RuntimeMS, p.StdMS, p.Fidelity)
			default:
				fmt.Fprintf(&b, "  %4d %-8s  %10.2f ms ± %.2f\n", p.X, p.Placement, p.RuntimeMS, p.StdMS)
			}
		}
	}
	if e.Text != "" {
		b.WriteString("\n")
		b.WriteString(e.Text)
	}
	b.WriteString("\n")
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// CSV renders an experiment as comma-separated rows:
// series,x,placement,runtime_ms,std_ms,fidelity,infeasible.
func CSV(e *Experiment) string {
	var b strings.Builder
	b.WriteString("series,x,placement,runtime_ms,std_ms,fidelity,infeasible\n")
	for _, s := range e.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%q,%d,%q,%.4f,%.4f,%.4f,%v\n",
				s.Label, p.X, p.Placement, p.RuntimeMS, p.StdMS, p.Fidelity, p.Infeasible)
		}
	}
	return b.String()
}

// Winners returns, per X value, the series with the lowest runtime —
// the "who wins where" summary used to check figure shapes against the
// paper's qualitative claims.
func Winners(e *Experiment) map[int]string {
	best := map[int]float64{}
	winner := map[int]string{}
	for _, s := range e.Series {
		for _, p := range s.Points {
			if p.Infeasible || p.Err != "" || p.RuntimeMS <= 0 {
				continue
			}
			if cur, ok := best[p.X]; !ok || p.RuntimeMS < cur {
				best[p.X] = p.RuntimeMS
				winner[p.X] = s.Label
			}
		}
	}
	return winner
}

// SeriesByLabel finds a series in an experiment.
func SeriesByLabel(e *Experiment, label string) *Series {
	for i := range e.Series {
		if e.Series[i].Label == label {
			return &e.Series[i]
		}
	}
	return nil
}

// SortedXs lists the distinct X values of an experiment in order.
func SortedXs(e *Experiment) []int {
	seen := map[int]bool{}
	var xs []int
	for _, s := range e.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Ints(xs)
	return xs
}
