package backends

import (
	"math/rand"
	"testing"

	"qfw/internal/conformance"
	"qfw/internal/core"
	"qfw/internal/cost"
)

// TestBondEstimateBoundsMeasuredPeak validates the cost model's entanglement
// bound against the engine it predicts for: over the conformance corpus
// (random circuits over the full shared gate set, long-range placements
// included), the measured MPS peak bond must never exceed the extractor's
// estimate. The bond cap is left far above saturation so the measurement is
// the true untruncated peak.
func TestBondEstimateBoundsMeasuredPeak(t *testing.T) {
	env := testEnv(t)
	exec, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 8; n++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(n)))
			c := conformance.RandomCircuit(rng, n, 6*n)
			c.MeasureAll()
			f := cost.Extract(c, nil)
			spec, err := core.SpecFromCircuit(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec.Execute(spec, core.RunOptions{
				Shots: 16, Seed: seed, Subbackend: "matrix_product_state", MaxBond: 4096,
			})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			peak := int(res.Extra["mps_peak_bond"])
			if peak < 1 {
				t.Fatalf("n=%d seed=%d: missing peak-bond telemetry", n, seed)
			}
			if peak > f.EstPeakBond() {
				t.Fatalf("n=%d seed=%d: measured peak bond %d exceeds estimate %d (bits %d, swaps %d)",
					n, seed, peak, f.EstPeakBond(), f.BondBits, f.RouteSwaps)
			}
		}
	}
}
