package statevec

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/mpi"
	"qfw/internal/pauli"
)

// distStateOn runs the fused distributed engine over p ranks and returns the
// program-ordered amplitudes gathered on rank 0.
func distStateOn(t *testing.T, c *circuit.Circuit, p int) []complex128 {
	t.Helper()
	w := mpi.NewWorld(p)
	var amps []complex128
	err := w.Run(func(comm *mpi.Comm) error {
		got, err := RunDistributedState(comm, c, nil)
		if comm.Rank() == 0 {
			amps = got
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return amps
}

// TestDistributedFusedMatchesSerialAmplitudes is the acceptance criterion:
// fused-distributed execution agrees with single-rank fused amplitudes to
// 1e-12 across the full random gate set for P in {1, 2, 4, 8}.
func TestDistributedFusedMatchesSerialAmplitudes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(6, 50, rng)
		ref, _ := RunFused(c, nil, 1, rand.New(rand.NewSource(0)))
		for _, p := range []int{1, 2, 4, 8} {
			amps := distStateOn(t, c, p)
			if len(amps) != len(ref.Amp) {
				t.Fatalf("seed %d p=%d: %d amplitudes, want %d", seed, p, len(amps), len(ref.Amp))
			}
			for i := range amps {
				if cmplx.Abs(amps[i]-ref.Amp[i]) > 1e-12 {
					t.Fatalf("seed %d p=%d amp[%d]: dist %v vs serial %v", seed, p, i, amps[i], ref.Amp[i])
				}
			}
		}
		ref.Release()
	}
}

// TestDistributedFusedWideGateFallback forces a passthrough gate wider than
// the shard (CCX with nLocal=2): the engine must decompose and still match.
func TestDistributedFusedWideGateFallback(t *testing.T) {
	c := circuit.New(5)
	c.H(0).H(1).H(4).CCX(4, 1, 0).CX(3, 4)
	ref, _ := RunFused(c, nil, 1, rand.New(rand.NewSource(0)))
	defer ref.Release()
	amps := distStateOn(t, c, 8) // nLocal = 2 < CCX arity 3
	for i := range amps {
		if cmplx.Abs(amps[i]-ref.Amp[i]) > 1e-12 {
			t.Fatalf("amp[%d]: dist %v vs serial %v", i, amps[i], ref.Amp[i])
		}
	}
}

// TestDistributedExpectations checks both observable paths against the
// serial engine: general Pauli sums (basis-change + Allreduce) and diagonal
// basis-index energies, on every rank.
func TestDistributedExpectations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(6, 40, rng)
	ham := &pauli.Hamiltonian{NQubits: 6}
	ham.Add(0.7, map[int]pauli.Op{0: pauli.X, 5: pauli.X})
	ham.Add(-1.3, map[int]pauli.Op{1: pauli.Y, 4: pauli.Z})
	ham.Add(0.4, map[int]pauli.Op{2: pauli.Z, 3: pauli.Y, 5: pauli.Y})
	ham.Add(2.1, map[int]pauli.Op{4: pauli.X})
	ham.Add(-0.5, map[int]pauli.Op{0: pauli.Z})
	diag := func(idx int) float64 { return float64(idx%7) - 3 }

	ref, _ := RunFused(c, nil, 1, rand.New(rand.NewSource(0)))
	wantHam := ref.ExpectationHamiltonian(ham)
	wantDiag := ref.ExpectationDiagonal(diag)
	ref.Release()

	for _, p := range []int{1, 2, 4, 8} {
		w := mpi.NewWorld(p)
		err := w.Run(func(comm *mpi.Comm) error {
			_, ev, err := RunDistributedCircuit(comm, c, nil, 16, 9, DistObs{Ham: ham}, 1)
			if err != nil {
				return err
			}
			if ev == nil || math.Abs(*ev-wantHam) > 1e-12 {
				t.Errorf("p=%d rank %d: <H> = %v, want %g", p, comm.Rank(), ev, wantHam)
			}
			_, ev, err = RunDistributedCircuit(comm, c, nil, 16, 9, DistObs{Diag: diag}, 1)
			if err != nil {
				return err
			}
			if ev == nil || math.Abs(*ev-wantDiag) > 1e-12 {
				t.Errorf("p=%d rank %d: diag <H> = %v, want %g", p, comm.Rank(), ev, wantDiag)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistributedBatchMatchesPerElement runs K bindings through the
// persistent-world batch path and checks each element against an
// independent single execution with the same seed.
func TestDistributedBatchMatchesPerElement(t *testing.T) {
	ansatz := circuit.New(5)
	for q := 0; q < 5; q++ {
		ansatz.H(q)
	}
	for q := 0; q+1 < 5; q++ {
		ansatz.RZZ(q, q+1, circuit.Sym("gamma", 1))
	}
	for q := 0; q < 5; q++ {
		ansatz.RX(q, circuit.Sym("beta", 1))
	}
	bindings := []map[string]float64{
		{"gamma": 0.3, "beta": 0.9},
		{"gamma": 1.1, "beta": 0.2},
		{"gamma": -0.4, "beta": 1.7},
	}
	seeds := []int64{101, 102, 103}
	diag := func(idx int) float64 { return float64(idx & 3) }

	w := mpi.NewWorld(4)
	batch, err := RunDistributedBatch(w, DistBatch{
		Circuit:  ansatz,
		Bindings: bindings,
		Shots:    500,
		Seeds:    seeds,
		Obs:      DistObs{Diag: diag},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(bindings) {
		t.Fatalf("got %d results, want %d", len(batch), len(bindings))
	}
	for i, b := range bindings {
		bound := ansatz.Bind(b)
		w2 := mpi.NewWorld(4)
		var counts map[string]int
		var ev *float64
		err := w2.Run(func(comm *mpi.Comm) error {
			got, e, err := RunDistributedCircuit(comm, bound, nil, 500, seeds[i], DistObs{Diag: diag}, 1)
			if comm.Rank() == 0 {
				counts, ev = got, e
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Counts, counts) {
			t.Fatalf("element %d counts differ: batch %v vs single %v", i, batch[i].Counts, counts)
		}
		if batch[i].ExpVal == nil || ev == nil || math.Abs(*batch[i].ExpVal-*ev) > 1e-12 {
			t.Fatalf("element %d expval: batch %v vs single %v", i, batch[i].ExpVal, ev)
		}
	}
}

// TestDistributedSamplingDeterministic: identical seeds give identical
// rank-0 histograms run-to-run, and non-root ranks return nil counts.
func TestDistributedSamplingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := randomCircuit(6, 30, rng)
	sample := func() map[string]int {
		w := mpi.NewWorld(4)
		var counts map[string]int
		err := w.Run(func(comm *mpi.Comm) error {
			got, err := RunDistributed(comm, c, 800, 77)
			if comm.Rank() == 0 {
				counts = got
			} else if got != nil {
				t.Errorf("rank %d returned counts", comm.Rank())
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return counts
	}
	a, b := sample(), sample()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampling not deterministic: %v vs %v", a, b)
	}
}

// TestDistributedValidationErrors exercises each rejection path of the
// distributed entry points with its dedicated message.
func TestDistributedValidationErrors(t *testing.T) {
	bound := circuit.New(2)
	bound.H(0)

	t.Run("non-power-of-two world", func(t *testing.T) {
		w := mpi.NewWorld(3)
		err := w.Run(func(comm *mpi.Comm) error {
			_, err := RunDistributed(comm, bound, 16, 1)
			if err == nil || !strings.Contains(err.Error(), "not a power of two") {
				t.Errorf("got %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ranks exceed amplitudes", func(t *testing.T) {
		w := mpi.NewWorld(8)
		err := w.Run(func(comm *mpi.Comm) error {
			_, err := RunDistributed(comm, bound, 16, 1)
			if err == nil || !strings.Contains(err.Error(), "exceed the 2^2 amplitudes") {
				t.Errorf("got %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("unbound parameters", func(t *testing.T) {
		c := circuit.New(3)
		c.RX(0, circuit.Sym("theta", 1))
		w := mpi.NewWorld(2)
		err := w.Run(func(comm *mpi.Comm) error {
			_, err := RunDistributed(comm, c, 16, 1)
			if err == nil || !strings.Contains(err.Error(), "unbound parameters [theta]") {
				t.Errorf("got %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("shard exceeds amplitude arena", func(t *testing.T) {
		c := circuit.New(33)
		c.H(0)
		w := mpi.NewWorld(2) // nLocal = 32 > the 30-qubit arena bound
		err := w.Run(func(comm *mpi.Comm) error {
			_, err := RunDistributed(comm, c, 16, 1)
			if err == nil || !strings.Contains(err.Error(), "amplitude arena") {
				t.Errorf("got %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("batch seed mismatch", func(t *testing.T) {
		w := mpi.NewWorld(2)
		_, err := RunDistributedBatch(w, DistBatch{
			Circuit:  bound,
			Bindings: []map[string]float64{{}, {}},
			Seeds:    []int64{1},
		})
		if err == nil || !strings.Contains(err.Error(), "seeds for") {
			t.Errorf("got %v", err)
		}
	})

	t.Run("batch unbound element", func(t *testing.T) {
		c := circuit.New(3)
		c.RX(0, circuit.Sym("theta", 1)).RY(1, circuit.Sym("phi", 1))
		w := mpi.NewWorld(2)
		_, err := RunDistributedBatch(w, DistBatch{
			Circuit:  c,
			Bindings: []map[string]float64{{"theta": 0.5}},
		})
		if err == nil || !strings.Contains(err.Error(), "unbound") {
			t.Errorf("got %v", err)
		}
	})
}

// TestDistributedMaxRankDegradation: with as many ranks as amplitudes
// (nLocal = 0) no dense gate can become shard-resident, so the engine must
// degrade to the per-gate exchange path and still match the serial state.
func TestDistributedMaxRankDegradation(t *testing.T) {
	c := circuit.New(3)
	c.H(0).CX(0, 1).RX(2, circuit.Bound(0.7)).CZ(1, 2)
	ref, _ := RunFused(c, nil, 1, rand.New(rand.NewSource(0)))
	defer ref.Release()
	for _, p := range []int{4, 8} {
		amps := distStateOn(t, c, p)
		for i := range amps {
			if cmplx.Abs(amps[i]-ref.Amp[i]) > 1e-12 {
				t.Fatalf("p=%d amp[%d]: dist %v vs serial %v", p, i, amps[i], ref.Amp[i])
			}
		}
	}
}

// TestDistributedFusedFewerBytes verifies the communication-avoidance claim
// at engine level: on a mixer-heavy circuit the fused stage engine moves
// fewer modelled bytes than exchanging one shard per rank for every gate
// that touches a rank-encoded qubit — the closed form of a per-gate
// distributed engine.
func TestDistributedFusedFewerBytes(t *testing.T) {
	const n, p, nLocal = 8, 4, 6
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for rep := 0; rep < 2; rep++ {
		for q := 0; q+1 < n; q++ {
			c.RZZ(q, q+1, circuit.Bound(0.4))
		}
		for q := 0; q < n; q++ {
			c.RX(q, circuit.Bound(0.8))
		}
	}
	w := mpi.NewWorld(p)
	err := w.Run(func(comm *mpi.Comm) error {
		_, err := RunDistributed(comm, c, 32, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	globalGates := 0
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			if q >= nLocal {
				globalGates++
				break
			}
		}
	}
	fused := w.BytesSent()
	perGate := int64(globalGates) * (16 << nLocal) * p
	if fused >= perGate {
		t.Fatalf("fused path sent %d bytes, one shard exchange per global-qubit gate is %d — fusion should communicate less", fused, perGate)
	}
	t.Logf("bytes: fused=%d per-gate closed form=%d (%.1fx less)", fused, perGate, float64(perGate)/float64(fused))
}
