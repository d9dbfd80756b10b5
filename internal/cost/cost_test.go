package cost

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qfw/internal/circuit"
)

func chainCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i+1 < n; i++ {
		c.RZZ(i, i+1, circuit.Bound(0.3))
		c.RX(i, circuit.Bound(0.2))
	}
	return c
}

func TestExtractChain(t *testing.T) {
	f := Extract(chainCircuit(8), nil)
	if f.NQubits != 8 || f.TwoQubit != 7 || f.Gates != 14 {
		t.Fatalf("features %+v", f)
	}
	if f.Bandwidth != 1 || f.MeanDistance != 1 {
		t.Fatalf("geometry %+v", f)
	}
	if f.Clifford {
		t.Fatal("RZZ chain flagged Clifford")
	}
	// A single nearest-neighbour pass charges each cut once: 2 bits.
	if f.BondBits != 2 || f.RouteSwaps != 0 {
		t.Fatalf("bond bits %d swaps %d", f.BondBits, f.RouteSwaps)
	}
	if f.EstPeakBond() != 4 {
		t.Fatalf("est peak bond %d", f.EstPeakBond())
	}
	if f.FusedOps == 0 {
		t.Fatalf("no fused ops: %+v", f)
	}
}

func TestExtractLongRangeRoutesSwaps(t *testing.T) {
	c := circuit.New(6)
	c.CX(0, 5)
	f := Extract(c, nil)
	if f.Bandwidth != 5 {
		t.Fatalf("bandwidth %d", f.Bandwidth)
	}
	if f.RouteSwaps == 0 {
		t.Fatal("long-range gate routed without swaps")
	}
}

func TestBondBoundSaturatesOnDenseCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 10
	c := circuit.New(n)
	for i := 0; i < 120; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		c.CX(a, b)
	}
	f := Extract(c, nil)
	// The per-cut clamp caps the exponent at the volume-law bound n/2.
	if f.BondBits != n/2 {
		t.Fatalf("bond bits %d, want %d", f.BondBits, n/2)
	}
}

func TestCurveEval(t *testing.T) {
	cv := Curve{Base: 3, Slope: 1, Knee: 10, Slope2: 2}
	if got := cv.Eval(8); got != 1 {
		t.Fatalf("below knee %g", got)
	}
	if got := cv.Eval(12); got != 7 {
		t.Fatalf("above knee %g", got)
	}
}

func TestFitRecoversLine(t *testing.T) {
	f := Extract(chainCircuit(6), nil)
	// Synthesize samples on log2(ms) = -3 + 1.1*(w - w0) for varying widths.
	var samples []Sample
	for _, n := range []int{6, 10, 14, 18} {
		ff := Extract(chainCircuit(n), nil)
		w, ok := workLog2(AerSV, ff, Resources{Workers: 1})
		if !ok {
			t.Fatal("no work estimate")
		}
		samples = append(samples, Sample{Engine: AerSV, F: ff, Res: Resources{Workers: 1}, MS: math.Exp2(-3 + 1.1*(w-10))})
	}
	cal := Fit(samples, nil)
	cv, ok := cal.Curves[AerSV]
	if !ok || cv.Pts != 4 {
		t.Fatalf("fit %+v", cal.Curves)
	}
	if math.Abs(cv.Slope-1.1) > 1e-6 {
		t.Fatalf("slope %g", cv.Slope)
	}
	w, _ := workLog2(AerSV, f, Resources{Workers: 1})
	want := -3 + 1.1*(w-10)
	if got := cv.Eval(w); math.Abs(got-want) > 1e-6 {
		t.Fatalf("eval %g want %g", got, want)
	}
	// A single sample shifts the base curve through the point.
	one := Fit(samples[:1], Seed())
	cv1 := one.Curves[AerSV]
	w0, _ := workLog2(AerSV, samples[0].F, samples[0].Res)
	if math.Abs(cv1.Eval(w0)-math.Log2(samples[0].MS)) > 1e-9 {
		t.Fatalf("shift fit misses the sample: %g vs %g", cv1.Eval(w0), math.Log2(samples[0].MS))
	}
}

func TestSeedCalibrationEmbedded(t *testing.T) {
	s := Seed()
	for _, key := range []string{AerSV, AerMPS, AerStab, NWQOpenMP, NWQMPI, QTensor, TNQVMMPS} {
		if _, ok := s.Curves[key]; !ok {
			t.Fatalf("seed missing curve %s", key)
		}
	}
}

// TestCurrentIsDeterministicUnderGoTest pins QFW_COST resolution: no
// variable means the embedded seed, "deterministic" spells the same value,
// an unloadable path falls back to the seed with exactly one line on the
// warning stream, and nothing is ever read from or written to the user cache
// directory.
func TestCurrentIsDeterministicUnderGoTest(t *testing.T) {
	cache := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", cache)
	for _, env := range []string{"", "deterministic"} {
		t.Setenv("QFW_COST", env)
		var warn bytes.Buffer
		if cal := resolve(&warn); cal != Seed() || warn.Len() != 0 {
			t.Fatalf("QFW_COST=%q resolved to %+v (warning %q), want the seed silently", env, cal, warn.String())
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	t.Setenv("QFW_COST", missing)
	var warn bytes.Buffer
	if cal := resolve(&warn); cal != Seed() {
		t.Fatalf("unreadable QFW_COST resolved to %+v, want the seed", cal)
	}
	msg := warn.String()
	if strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") ||
		!strings.Contains(msg, "QFW_COST") || !strings.Contains(msg, missing) || !strings.Contains(msg, "embedded seed") {
		t.Fatalf("unreadable QFW_COST warning should be one line naming the variable, the value and the seed, got %q", msg)
	}
	if left, err := os.ReadDir(cache); err != nil || len(left) != 0 {
		t.Fatalf("cost resolution touched the user cache dir: %v (err %v)", left, err)
	}
}

func TestRankPrefersMPSForChainAndWithdrawsOnVolumeLaw(t *testing.T) {
	m := NewModel(Seed())
	env := Env{Workers: 1, Cores: 1}
	engines := []string{AerSV, AerMPS, NWQOpenMP, QTensor}
	chain := Extract(chainCircuit(20), nil)
	cands := m.Rank(chain, engines, env)
	if len(cands) == 0 || cands[0].Engine != AerMPS {
		t.Fatalf("chain ranked %+v", cands)
	}
	if cands[0].Res.MaxBond == 0 || cands[0].Res.MaxBond > 64 {
		t.Fatalf("chain bond sizing %+v", cands[0].Res)
	}
	rng := rand.New(rand.NewSource(3))
	dense := circuit.New(20)
	for i := 0; i < 400; i++ {
		a := rng.Intn(20)
		b := rng.Intn(20)
		for b == a {
			b = rng.Intn(20)
		}
		dense.CX(a, b)
		dense.T(a)
	}
	cands = m.Rank(Extract(dense, nil), engines, env)
	for _, c := range cands {
		if c.Engine == AerMPS {
			t.Fatalf("volume-law circuit kept an MPS candidate: %+v", cands)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cost.json")
	if err := Save(path, Seed()); err != nil {
		t.Fatal(err)
	}
	cal, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Curves) != len(Seed().Curves) {
		t.Fatalf("round trip lost curves: %d vs %d", len(cal.Curves), len(Seed().Curves))
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	// Calibration files written before the batch split was removed carry a
	// "split_penalty" key; encoding/json ignores it, so they keep loading.
	old := filepath.Join(dir, "old_fit.json")
	if err := os.WriteFile(old, []byte(`{"version":1,"source":"fit","split_penalty":1.5,"curves":{"aer/statevector":{"base":1,"slope":1,"knee":10,"slope2":1,"pts":3}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if cal, err := Load(old); err != nil || len(cal.Curves) != 1 {
		t.Fatalf("calibration with a legacy split_penalty key: %+v, %v", cal, err)
	}
}
