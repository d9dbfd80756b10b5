package bench

import (
	"fmt"
	"strconv"
	"strings"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/workloads"
)

// RouteCase is one workload of the routing ablation's heterogeneous mix.
type RouteCase struct {
	Name string
	N    int
}

// RouteMix is the heterogeneous workload mix of the routing ablation: small
// Clifford and dense circuits, the statevector sweet spot, the MPS regime
// (nearest-neighbour at scale, swap-routed ring), and a structured
// long-range circuit — one entry per routing regime, so a single pinned
// engine cannot win them all.
var RouteMix = []RouteCase{
	{Name: "ghz", N: 12},
	{Name: "ham", N: 12},
	{Name: "hhl", N: 7},
	{Name: "qaoa", N: 10},
	{Name: "tfim", N: 16},
	{Name: "tfim", N: 20},
	{Name: "qaoa-ring", N: 32},
	{Name: "tfim-xl", N: 48},
}

// routeWorkload builds one mix entry ("qaoa" is the kernel ablation's bound
// random-QUBO ansatz at p=2; everything else comes from Table 2).
func (h *Harness) routeWorkload(rc RouteCase) (*circuit.Circuit, error) {
	if rc.Name == "qaoa" {
		return h.ablationDeepWorkload("qaoa", rc.N, 2)
	}
	return workloads.ByName(rc.Name, rc.N)
}

func routeKey(rc RouteCase) string { return fmt.Sprintf("%s-%d", rc.Name, rc.N) }

// ParseRouteCases parses qfwbench `route` arguments of the form
// "<workload>:<n>" (e.g. "tfim:20"); a bare workload name uses its
// RouteMix size, or the first quick catalog size otherwise.
func ParseRouteCases(args []string) ([]RouteCase, error) {
	var cases []RouteCase
	for _, arg := range args {
		name, nstr, hasN := strings.Cut(arg, ":")
		if hasN {
			n, err := strconv.Atoi(nstr)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bench: bad route case %q (want workload:n)", arg)
			}
			cases = append(cases, RouteCase{Name: name, N: n})
			continue
		}
		found := false
		for _, rc := range RouteMix {
			if rc.Name == name {
				cases = append(cases, rc)
				found = true
				break
			}
		}
		if found {
			continue
		}
		for _, spec := range Catalog {
			if spec.Name == name && len(spec.Quick) > 0 {
				cases = append(cases, RouteCase{Name: name, N: spec.Quick[0]})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown route workload %q", name)
		}
	}
	return cases, nil
}

// RouteDecisionTable renders the selector's verdict for a list of workloads:
// chosen engine, sized resources, predicted per-element cost, and the rule
// that made the call (cost model vs structural fallback). Used by the
// qfwbench `route` command and appended to the capability table.
func (h *Harness) RouteDecisionTable(cases []RouteCase) (string, error) {
	auto := h.Session.Auto()
	if auto == nil {
		return "", fmt.Errorf("bench: session has no auto selector (no local backends)")
	}
	text := fmt.Sprintf("%-14s %-28s %-10s %-22s %s\n", "Workload", "Route", "Rule", "Resources", "Predicted")
	for _, rc := range cases {
		c, err := h.routeWorkload(rc)
		if err != nil {
			return "", err
		}
		spec, err := core.SpecFromCircuit(c)
		if err != nil {
			return "", err
		}
		d, err := auto.Decide(spec, 1)
		if err != nil {
			return "", err
		}
		res := "-"
		if d.Res.Workers > 0 || d.Res.Ranks > 0 || d.Res.MaxBond > 0 {
			var parts []string
			if d.Res.Workers > 0 {
				parts = append(parts, fmt.Sprintf("workers=%d", d.Res.Workers))
			}
			if d.Res.Ranks > 0 {
				parts = append(parts, fmt.Sprintf("ranks=%d", d.Res.Ranks))
			}
			if d.Res.MaxBond > 0 {
				parts = append(parts, fmt.Sprintf("maxbond=%d", d.Res.MaxBond))
			}
			res = strings.Join(parts, " ")
		}
		pred := "-"
		if d.PredictedMS > 0 {
			pred = fmt.Sprintf("%.3fms", d.PredictedMS)
		}
		text += fmt.Sprintf("%-14s %-28s %-10s %-22s %s\n",
			routeKey(rc), d.Backend+"/"+d.Sub, d.Rule, res, pred)
	}
	return text, nil
}

// RunRouteAblation measures the heterogeneous RouteMix executed through the
// auto selector (cost-model routing) and through every pinned single-engine
// choice a user could have made instead. Sizes span the statevector and MPS regimes, so each pinned
// engine is either slow or infeasible somewhere; the routed series must
// aggregate at or below every pinned aggregate over that engine's feasible
// subset. Routed points carry the model's predicted cost next to the
// measured runtime — the predicted-vs-actual record of the calibration.
func (h *Harness) RunRouteAblation() (*Experiment, error) {
	exp := &Experiment{
		ID:    "ablation-route",
		Title: "Cost-model routing vs pinned single-engine execution (heterogeneous SV/MPS workload mix)",
		Notes: "X axis is the qubit count; every series runs the identical workload mix with identical seeds. Pinned aggregates cover only that engine's feasible subset.",
	}
	pinned := []BackendSel{
		{Backend: "aer", Subbackend: "statevector"},
		{Backend: "aer", Subbackend: "matrix_product_state"},
		{Backend: "nwqsim", Subbackend: "openmp"},
	}
	mix := RouteMix
	opts := core.RunOptions{Shots: h.Shots, Seed: h.Seed}

	autoFront, err := h.Session.Frontend(core.Properties{Backend: "auto"})
	if err != nil {
		return nil, err
	}
	auto := h.Session.Auto()
	routed := Series{Label: "routed (auto)"}
	routedMS := map[string]float64{}
	circuits := map[string]*circuit.Circuit{}
	for _, rc := range mix {
		c, err := h.routeWorkload(rc)
		if err != nil {
			return nil, err
		}
		circuits[routeKey(rc)] = c
		var predicted float64
		if auto != nil {
			if cspec, err := core.SpecFromCircuit(c); err == nil {
				if d, err := auto.Decide(cspec, 1); err == nil {
					predicted = d.PredictedMS
				}
			}
		}
		mean, std, runErr := h.timedRun(func() error {
			_, err := autoFront.Run(c, opts)
			return err
		})
		pt := Point{X: rc.N, Placement: routeKey(rc), RuntimeMS: mean, StdMS: std, PredictedMS: predicted}
		if runErr != nil {
			return nil, fmt.Errorf("bench: routed %s failed: %w", routeKey(rc), runErr)
		}
		routedMS[routeKey(rc)] = mean
		routed.Points = append(routed.Points, pt)
	}
	exp.Series = append(exp.Series, routed)

	for _, sel := range pinned {
		front, err := h.Session.Frontend(core.Properties{Backend: sel.Backend, Subbackend: sel.Subbackend})
		if err != nil {
			return nil, err
		}
		series := Series{Label: sel.Backend + "/" + sel.Subbackend + " pinned"}
		var pinnedTotal, routedTotal float64
		feasible := 0
		for _, rc := range mix {
			c := circuits[routeKey(rc)]
			mean, std, runErr := h.timedRun(func() error {
				_, err := front.Run(c, opts)
				return err
			})
			pt := Point{X: rc.N, Placement: routeKey(rc), RuntimeMS: mean, StdMS: std}
			if runErr != nil {
				pt.Infeasible = core.IsInfeasible(runErr)
				pt.Err = runErr.Error()
				pt.RuntimeMS, pt.StdMS = 0, 0
				if !pt.Infeasible {
					return nil, fmt.Errorf("bench: pinned %s on %s failed: %w", series.Label, routeKey(rc), runErr)
				}
			} else {
				feasible++
				pinnedTotal += mean
				routedTotal += routedMS[routeKey(rc)]
			}
			series.Points = append(series.Points, pt)
		}
		if pinnedTotal > 0 {
			exp.Notes += fmt.Sprintf(" routed %.1fms vs %s %.1fms over its %d/%d feasible workloads (%.2fx).",
				routedTotal, series.Label, pinnedTotal, feasible, len(mix), pinnedTotal/routedTotal)
		}
		exp.Series = append(exp.Series, series)
	}

	if table, err := h.RouteDecisionTable(mix); err == nil {
		exp.Text = "\nRouting decisions:\n" + table
	}
	return exp, nil
}
