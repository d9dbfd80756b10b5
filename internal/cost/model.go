package cost

import (
	"math"
	"sort"
)

// Engine keys name one (backend, sub-backend) execution path. They double as
// the curve keys of a Calibration.
const (
	AerSV     = "aer/statevector"
	AerMPS    = "aer/matrix_product_state"
	AerStab   = "aer/stabilizer"
	NWQOpenMP = "nwqsim/openmp"
	NWQCPU    = "nwqsim/cpu"
	NWQMPI    = "nwqsim/mpi"
	QTensor   = "qtensor/numpy"
	TNQVMMPS  = "tnqvm/exatn-mps"
)

// Resources are the sizing knobs of one candidate route: kernel worker
// count for the chunked statevector engines, shard (rank) count for the
// distributed path, and the bond cap for the MPS engines.
type Resources struct {
	Workers int `json:"workers,omitempty"`
	Ranks   int `json:"ranks,omitempty"`
	MaxBond int `json:"max_bond,omitempty"`
}

// Curve is one engine's fitted cost curve in log space:
//
//	log2(ms) = Base + Slope*(log2 W - Knee)        for log2 W <= Knee
//	log2(ms) = Base + Slope2*(log2 W - Knee)       above the knee
//
// where W is the engine's analytic work estimate (workLog2). A single-segment
// fit sets Slope2 = Slope. Pts records the fit support; 0 marks a hand-set
// seed segment that no artifact covered.
type Curve struct {
	Base   float64 `json:"base"`
	Slope  float64 `json:"slope"`
	Knee   float64 `json:"knee"`
	Slope2 float64 `json:"slope2"`
	Pts    int     `json:"pts"`
}

// Eval returns log2(predicted ms) at log2-work w.
func (cv Curve) Eval(w float64) float64 {
	s := cv.Slope
	if w > cv.Knee && cv.Slope2 != 0 {
		return cv.Base + cv.Slope2*(w-cv.Knee)
	}
	return cv.Base + s*(w-cv.Knee)
}

// Calibration is the persisted cost model: one curve per engine key.
type Calibration struct {
	Version int              `json:"version"`
	Source  string           `json:"source"` // "seed", "fit", "env"
	Curves  map[string]Curve `json:"curves"`
}

// Model ranks candidate routes under a calibration.
type Model struct {
	cal *Calibration
}

// NewModel wraps a calibration; nil returns a nil model (routing falls back
// to structural rules).
func NewModel(cal *Calibration) *Model {
	if cal == nil {
		return nil
	}
	return &Model{cal: cal}
}

// Calibration exposes the model's underlying calibration (telemetry, tests).
func (m *Model) Calibration() *Calibration { return m.cal }

// workLog2 is the analytic per-element work estimate of an engine family, in
// log2 units. The fitted curve maps work to milliseconds; keeping the
// estimate in log space makes 2^n terms safe far past any feasible size.
func workLog2(key string, f *Features, r Resources) (float64, bool) {
	n := float64(f.NQubits)
	switch key {
	case AerSV, NWQOpenMP, NWQCPU, NWQMPI:
		// Chunked dense statevector: fused-op count times the state size,
		// divided across kernel workers (or shards x per-rank workers for
		// the distributed path). A remap term charges the all-to-all
		// exchanges the sharded engine pays per stage boundary.
		ops := float64(max(f.FusedOps, 1))
		w := float64(max(r.Workers, 1))
		work := ops * math.Exp2(n) / w
		if key == NWQMPI {
			ranks := float64(max(r.Ranks, 1))
			work = ops*math.Exp2(n)/(ranks*w) + 0.5*math.Exp2(n)*math.Log2(ranks+1)
		}
		return math.Log2(work + 512), true
	case AerMPS, TNQVMMPS:
		cap := float64(r.MaxBond)
		if cap <= 0 {
			cap = 64 // mps.DefaultMaxBond (not importable without a cycle)
		}
		chi := float64(f.EstPeakBond())
		if cap < chi {
			// Truncated run: the cap binds only at the central cuts, and
			// the bond profile ramps exponentially toward the centre, so
			// the op-weighted effective bond sits near the profile's
			// geometric mean — the square root of the estimated peak —
			// until the cap's own truncated average (~cap/4, what measured
			// per-op costs track) clamps it.
			chi = math.Max(8, math.Min(math.Sqrt(chi), cap/4))
		}
		twoQ := float64(f.TwoQubit + f.RouteSwaps)
		oneQ := float64(f.Gates - f.TwoQubit)
		// Two-site contractions cost chi^3, single-site updates chi^2, and
		// a per-qubit term covers allocation/canonicalization overhead.
		work := twoQ*chi*chi*chi + (oneQ+4*n)*chi*chi
		return math.Log2(work + 512), true
	case AerStab:
		if !f.Clifford {
			return 0, false
		}
		work := float64(f.Gates+64) * n * n
		return math.Log2(work + 512), true
	case QTensor:
		// The tensor-network backend contracts to the full amplitude
		// vector, so its asymptotics match the dense engines with a much
		// larger constant (captured by the curve base).
		work := float64(max(f.Gates, 1)) * math.Exp2(n)
		return math.Log2(work + 512), true
	}
	return 0, false
}

// Predict returns log2(predicted ms) for one engine at the given resources,
// or ok=false when the engine cannot run the circuit (non-Clifford on the
// stabilizer path) or the calibration has no curve for it.
func (m *Model) Predict(key string, f *Features, r Resources) (float64, bool) {
	cv, ok := m.cal.Curves[key]
	if !ok {
		return 0, false
	}
	w, ok := workLog2(key, f, r)
	if !ok {
		return 0, false
	}
	return cv.Eval(w), true
}

// PredictMS is Predict in linear milliseconds.
func (m *Model) PredictMS(key string, f *Features, r Resources) (float64, bool) {
	l, ok := m.Predict(key, f, r)
	if !ok {
		return 0, false
	}
	return math.Exp2(l), true
}

// Env carries the machine context candidate sizing draws on: the
// kernel worker count (statevec.CurrentTuning().Workers), the scheduler's
// usable core count, and the dense-amplitude memory budget (0 = unbounded).
// Candidates that cannot physically run under the budget are withdrawn
// rather than offered as routes that can only fail.
type Env struct {
	Workers  int
	Cores    int
	MemBytes int64
}

// denseFits reports whether a 16-byte-per-amplitude dense state of n qubits
// fits the budget (mirrors the backends' state-vector feasibility check).
func denseFits(n int, memBytes int64) bool {
	if n >= 62 {
		return false
	}
	return memBytes <= 0 || (int64(16)<<uint(n)) <= memBytes
}

// Candidate is one ranked route: an engine key, its sized resources, and
// the predicted per-element cost.
type Candidate struct {
	Engine string
	Res    Resources
	Log2MS float64
}

// MS returns the candidate's predicted cost in milliseconds.
func (c Candidate) MS() float64 { return math.Exp2(c.Log2MS) }

// Rank sizes and scores every offered engine key and returns the candidates
// sorted by predicted cost (ties broken by key for determinism). Sizing per
// family: dense engines take the kernel worker count; the distributed
// path additionally searches shard counts; the MPS engines take the smallest
// power-of-two bond cap that the estimated peak bond proves lossless, so a
// provably low-entanglement circuit never pays for headroom it cannot use.
func (m *Model) Rank(f *Features, engines []string, env Env) []Candidate {
	env.Workers = max(env.Workers, 1)
	env.Cores = max(env.Cores, 1)
	var out []Candidate
	for _, key := range engines {
		var best *Candidate
		for _, r := range sizings(key, f, env) {
			l, ok := m.Predict(key, f, r)
			if !ok {
				continue
			}
			if best == nil || l < best.Log2MS {
				best = &Candidate{Engine: key, Res: r, Log2MS: l}
			}
		}
		if best != nil {
			out = append(out, *best)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Log2MS != out[j].Log2MS {
			return out[i].Log2MS < out[j].Log2MS
		}
		return out[i].Engine < out[j].Engine
	})
	return out
}

// sizings enumerates the resource candidates of one engine key.
func sizings(key string, f *Features, env Env) []Resources {
	fits := denseFits(f.NQubits, env.MemBytes)
	switch key {
	case AerSV, NWQOpenMP, NWQCPU:
		if !fits {
			return nil
		}
		return []Resources{{Workers: env.Workers}}
	case NWQMPI:
		// Shards are processes on this machine's cores: rank counts past
		// the core count model a speedup the hardware cannot deliver, and
		// the shards jointly hold the full dense state.
		if !fits {
			return nil
		}
		var out []Resources
		for _, r := range []int{1, 2, 4, 8} {
			if r > 1 && r > env.Cores {
				break
			}
			out = append(out, Resources{Workers: max(env.Workers/r, 1), Ranks: r})
		}
		return out
	case QTensor:
		// Contracts to the full amplitude vector, so the dense budget
		// applies unchanged.
		if !fits {
			return nil
		}
		return []Resources{{}}
	case AerMPS, TNQVMMPS:
		// Bond cap sized from the entanglement bound: the smallest
		// power-of-two at or above the estimated peak bond keeps the run
		// exact while trimming the workspace; past the practical cap the
		// engine's own default truncation policy applies (MaxBond 0).
		est := f.EstPeakBond()
		for _, b := range []int{8, 16, 32, 64} {
			if est <= b {
				return []Resources{{MaxBond: b, Workers: env.Workers}}
			}
		}
		// Past the practical cap the engine truncates. Area-law structure
		// truncates gracefully, and a deep nearest-neighbour circuit
		// saturates the clamped bound without being volume-law — but a
		// saturated bound built from long-range couplings means genuine
		// volume-law entanglement, where a capped MPS run is cheap
		// garbage. When an exact dense engine can still run such a
		// circuit, withdraw the candidate rather than win on a runtime
		// the fidelity cannot back; when nothing dense fits, the
		// truncating MPS is the only engine that runs at all, so it
		// stays offered.
		if fits && f.BondBits >= f.NQubits/2 && f.Bandwidth > 1 {
			return nil
		}
		return []Resources{{Workers: env.Workers}}
	default:
		return []Resources{{}}
	}
}
