package cost

// The process-wide cost model is the embedded seed calibration (seed.go)
// unless QFW_COST overrides it:
//
//	"deterministic"  — the embedded seed, spelled out,
//	<path>           — load a fitted calibration file (qfwbench -exp fit-cost).
//
// Any other value is a path; one that cannot be loaded is reported once on
// stderr and the seed applies.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
)

var (
	curOnce sync.Once
	curVal  *Model
)

// Current resolves (once per process) the process-wide cost model; it is
// never nil.
func Current() *Model {
	curOnce.Do(func() { curVal = NewModel(resolve(os.Stderr)) })
	return curVal
}

// resolve applies QFW_COST over the seed; warn receives the one line
// reporting an unloadable path.
func resolve(warn io.Writer) *Calibration {
	env := strings.TrimSpace(os.Getenv("QFW_COST"))
	switch strings.ToLower(env) {
	case "", "deterministic":
		return Seed()
	}
	cal, err := Load(env)
	if err != nil {
		fmt.Fprintf(warn, "qfw: QFW_COST=%q is not deterministic or a loadable calibration (%v); using the embedded seed\n", env, err)
		return Seed()
	}
	cal.Source = "env"
	return cal
}

// Load reads a calibration file written by Save or `qfwbench -exp fit-cost`.
func Load(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cal Calibration
	if err := json.Unmarshal(data, &cal); err != nil {
		return nil, fmt.Errorf("cost: bad calibration %s: %w", path, err)
	}
	if len(cal.Curves) == 0 {
		return nil, fmt.Errorf("cost: calibration %s has no curves", path)
	}
	return &cal, nil
}

// Save writes a calibration as indented JSON.
func Save(path string, cal *Calibration) error {
	data, err := json.MarshalIndent(cal, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Sample is one fitting observation: an engine ran a circuit with the given
// features and resources in MS milliseconds.
type Sample struct {
	Engine string
	F      *Features
	Res    Resources
	MS     float64
}

// Fit regresses per-engine cost curves from samples in log space, layered
// over a base calibration (typically the seed): engines with two or more
// samples get a fresh least-squares fit (piecewise when five or more
// samples support a knee), engines with exactly one get the base curve
// shifted through the sample, and engines with none keep the base curve.
func Fit(samples []Sample, base *Calibration) *Calibration {
	out := &Calibration{Version: 1, Source: "fit", Curves: map[string]Curve{}}
	if base != nil {
		out.Version = base.Version
		for k, cv := range base.Curves {
			out.Curves[k] = cv
		}
	}
	byEngine := map[string][][2]float64{} // (log2 W, log2 ms)
	for _, s := range samples {
		if s.MS <= 0 {
			continue
		}
		w, ok := workLog2(s.Engine, s.F, s.Res)
		if !ok {
			continue
		}
		byEngine[s.Engine] = append(byEngine[s.Engine], [2]float64{w, math.Log2(s.MS)})
	}
	for key, pts := range byEngine {
		switch {
		case len(pts) >= 2:
			out.Curves[key] = fitCurve(pts)
		case len(pts) == 1:
			cv, ok := out.Curves[key]
			if !ok {
				cv = Curve{Slope: 1, Slope2: 1}
			}
			cv.Base += pts[0][1] - cv.Eval(pts[0][0])
			cv.Pts = 1
			out.Curves[key] = cv
		}
	}
	return out
}

// fitCurve least-squares a line through (w, y) pivoted at the mean w; with
// five or more points it tries a knee at each interior w and keeps the
// two-segment fit when it reduces the residual by at least 20%.
func fitCurve(pts [][2]float64) Curve {
	sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
	base, slope, knee, sse := lineFit(pts)
	cv := Curve{Base: base, Slope: slope, Knee: knee, Slope2: slope, Pts: len(pts)}
	if len(pts) < 5 {
		return cv
	}
	bestSSE := sse
	for cut := 2; cut <= len(pts)-2; cut++ {
		lb, ls, lk, lsse := lineFit(pts[:cut])
		kneeW := pts[cut-1][0]
		baseAtKnee := lb + ls*(kneeW-lk)
		// Right segment: slope through the knee point.
		var num, den, rsse float64
		for _, p := range pts[cut:] {
			num += (p[1] - baseAtKnee) * (p[0] - kneeW)
			den += (p[0] - kneeW) * (p[0] - kneeW)
		}
		if den == 0 {
			continue
		}
		s2 := num / den
		for _, p := range pts[cut:] {
			r := p[1] - (baseAtKnee + s2*(p[0]-kneeW))
			rsse += r * r
		}
		if tot := lsse + rsse; tot < bestSSE*0.8 {
			bestSSE = tot
			cv = Curve{Base: baseAtKnee, Slope: ls, Knee: kneeW, Slope2: s2, Pts: len(pts)}
		}
	}
	return cv
}

func lineFit(pts [][2]float64) (base, slope, pivot, sse float64) {
	var mw, my float64
	for _, p := range pts {
		mw += p[0]
		my += p[1]
	}
	mw /= float64(len(pts))
	my /= float64(len(pts))
	var num, den float64
	for _, p := range pts {
		num += (p[0] - mw) * (p[1] - my)
		den += (p[0] - mw) * (p[0] - mw)
	}
	slope = 1
	if den > 0 {
		slope = num / den
	}
	base = my
	for _, p := range pts {
		r := p[1] - (base + slope*(p[0]-mw))
		sse += r * r
	}
	return base, slope, mw, sse
}
