//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/statevec"
)

const (
	oracleWidth = 20   // widest circuit checked against a dense per-gate oracle
	tolDense    = 1e-9 // stack vs oracle on dense engines
	tolMPS      = 1e-6 // stack vs oracle where the MPS engine ran (truncation)
)

// zzChain is the check observable for circuits that carry none: random ZZ
// couplings between neighbours. It has no single-qubit terms on purpose: a
// GHZ state routed to the stabilizer engine gets its expectation estimated
// from counts, and ZZ is +1 on every GHZ sample, so even that estimate is
// exact.
func zzChain(n int, rng *rand.Rand) *core.Observable {
	obs := &core.Observable{Fields: make([]float64, n)}
	for i := 0; i+1 < n; i++ {
		obs.Couplings = append(obs.Couplings, core.Coupling{I: i, J: i + 1, V: 0.5 + rng.Float64()})
	}
	return obs
}

// oracle is the expectation of obs on the per-gate reference engine.
func oracle(c *circuit.Circuit, obs *core.Observable) float64 {
	s, _ := statevec.RunCircuit(c.StripMeasurements(), runtime.GOMAXPROCS(0), rand.New(rand.NewSource(1)))
	return s.ExpectationDiagonal(obs.EnergyOfIndex)
}

// verify runs the untimed set-up checks of a workload over a live
// connection: every distinct circuit's analytic expectation through the
// whole stack against the per-gate oracle (the n=16 sibling where the
// circuit itself is beyond one), and a seeded request issued twice.
func verify(c *conn, in *inputs) error {
	rng := rand.New(rand.NewSource(in.CheckSeed))
	for i := range in.Classes {
		if err := verifyClass(c, &in.Classes[i], rng); err != nil {
			return fmt.Errorf("verify %s: %w", in.Classes[i].name, err)
		}
	}
	return verifyRepeat(c, in)
}

func verifyClass(c *conn, cl *class, rng *rand.Rand) error {
	probe := *cl
	probe.shots = 0
	if cl.sibling != nil {
		probe.circ, probe.sibling = cl.sibling, nil
	}
	if probe.circ.NQubits > oracleWidth {
		return fmt.Errorf("%d qubits is beyond the oracle and there is no sibling", probe.circ.NQubits)
	}
	if probe.obs == nil {
		probe.obs = zzChain(probe.circ.NQubits, rng)
	}
	var binding []core.Bindings
	boundCirc := probe.circ
	var err error
	if cl.k > 0 {
		probe.k = 1
		binding = []core.Bindings{randomBinding(rng)}
		boundCirc = probe.circ.Bind(binding[0])
		probe.spec, err = core.SpecFromParametric(probe.circ)
	} else {
		probe.spec, err = core.SpecFromCircuit(probe.circ)
	}
	if err != nil {
		return err
	}
	want := oracle(boundCirc, probe.obs)

	var got float64
	tol := tolDense
	if c.w.solve && cl.k > 0 {
		// The variational loop reads its objective from gradient requests.
		gr, err := c.front.RunGradient(probe.circ, binding, probe.runOpts(1, ""))
		if err != nil {
			return err
		}
		got = gr[0].Value
	} else {
		out, err := c.request(&probe, 1, binding)
		if err != nil {
			return err
		}
		got = *out[0].ExpVal
		if strings.Contains(c.w.sub+out[0].Subbackend+out[0].Route, "matrix_product_state") {
			tol = tolMPS
		}
	}
	if d := math.Abs(got - want); d > tol*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("expectation %.12f through the stack, %.12f on the oracle (tolerance %g)", got, want, tol)
	}
	return nil
}

// verifyRepeat issues the first sampled request of op 0 twice and requires
// identical histograms: seeded execution is a pure function of the request.
func verifyRepeat(c *conn, in *inputs) error {
	for ci := range in.Classes {
		cl := &in.Classes[ci]
		if cl.shots == 0 || c.w.solve && cl.k > 0 {
			continue
		}
		var b []core.Bindings
		if in.Ops[0].Bindings != nil {
			b = in.Ops[0].Bindings[ci]
		}
		first, err := c.request(cl, in.CheckSeed, b)
		if err != nil {
			return err
		}
		second, err := c.request(cl, in.CheckSeed, b)
		if err != nil {
			return err
		}
		for i := range first {
			if !reflect.DeepEqual(first[i].Counts, second[i].Counts) {
				return fmt.Errorf("verify %s: the same seeded request returned different counts", cl.name)
			}
		}
		return nil
	}
	return nil
}

// payloadOf is the part of a reply a cache replay must reproduce exactly,
// in canonical form (encoding/json sorts map keys).
func payloadOf(out []*core.Result) string {
	type payload struct {
		Counts map[string]int `json:"counts"`
		ExpVal *float64       `json:"expval"`
	}
	p := make([]payload, len(out))
	for i, r := range out {
		p[i] = payload{r.Counts, r.ExpVal}
	}
	b, _ := json.Marshal(p) // maps of ints and floats always marshal
	return string(b)
}
