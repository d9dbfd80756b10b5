package backends

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/statevec"
	"qfw/internal/workloads"
)

// digestWorkers is the core count the executor digest is recorded at. The
// test pins GOMAXPROCS to it, since no engine has been shown to return the
// same bits at every kernel width.
const digestWorkers = 2

// TestExecutorDigest pins what every local executor returns — seeded
// counts (as a digest), ExpVal, TruncErr, Extra, Route, gradients, or the
// error text — for every backend × sub-backend cell on single Execute,
// on a parametric batch, on a batch of one nil binding, and on the
// gradient path. testdata/exec_digest.txt is rewritten only under
// -update-golden; any change in a returned bit shows up as a changed row.
//
// The auto cell's routes read the cost model's kernel worker count, which
// is fixed once per process; its rows are checked only when that count is
// digestWorkers.
func TestExecutorDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(digestWorkers))
	s := launch(t)
	checkAuto := statevec.CurrentTuning().Workers == digestWorkers

	subs := map[string][]string{
		"aer":     {"", "statevector", "matrix_product_state", "mps", "stabilizer", "automatic", "bogus"},
		"nwqsim":  {"", "mpi", "openmp", "cpu", "amdgpu", "bogus"},
		"tnqvm":   {"", "exatn-mps", "ttn", "peps", "bogus"},
		"qtensor": {"", "numpy", "mpi", "cupy", "pytorch", "bogus"},
		"auto":    {""},
	}
	names := []string{"aer", "nwqsim", "tnqvm", "qtensor", "auto"}

	mid := circuit.New(5)
	mid.Name = "mid-5"
	mid.H(0).CX(0, 1).Measure(1, 1).RY(2, circuit.Bound(0.4)).CX(1, 2).H(3).T(3).CX(3, 4).RZ(4, circuit.Bound(0.3))
	mid.MeasureAll()
	// Entangled past a bond of 48, so each MPS row's bond cap shows; it
	// runs once per cell (single, seed 0, no observable), as MPS at that
	// bond is slow.
	dense := circuit.New(12)
	dense.Name = "dense-12"
	for layer := 0; layer < 16; layer++ {
		for q := 0; q < 12; q++ {
			dense.RY(q, circuit.Bound(0.1+0.37*float64((layer*12+q)%7)))
		}
		for q := layer % 2; q+1 < 12; q += 2 {
			dense.CX(q, q+1)
		}
	}
	dense.MeasureAll()
	denseSpec, err := core.SpecFromCircuit(dense)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{
		workloads.GHZ(8), workloads.GHZ(12), workloads.GHZ(18),
		workloads.TFIM(8, 4, 0.5, 1.0), workloads.TFIM(12, 4, 0.5, 1.0), workloads.TFIM(18, 4, 0.5, 1.0),
		workloads.HHL(workloads.HHLSize(7)), mid,
	}
	q := qubo.Random(10, 0.5, 1, rand.New(rand.NewSource(17)))
	h, _ := q.CostHamiltonian()
	ansatz := qaoa.BuildAnsatz(h, 2)
	ansatzSpec, err := core.SpecFromParametric(ansatz)
	if err != nil {
		t.Fatal(err)
	}
	bindings := []core.Bindings{
		qaoa.BindParams([]float64{0.3, 0.7, 0.5, 0.2}),
		qaoa.BindParams([]float64{1.1, -0.4, 0.9, 0.6}),
		qaoa.BindParams([]float64{-0.2, 0.15, 0.35, 1.3}),
	}
	zzChain := func(n int) *core.Observable {
		o := &core.Observable{}
		for i := 0; i+1 < n; i++ {
			o.Couplings = append(o.Couplings, core.Coupling{I: i, J: i + 1, V: 0.5 + 0.125*float64(i)})
		}
		return o
	}

	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	row := func(res core.ExecResult) string {
		line := "counts=none"
		if res.Counts != nil {
			data, _ := json.Marshal(res.Counts) // map keys marshal sorted
			line = fmt.Sprintf("counts=%x", sha256.Sum256(data))[:7+16]
		}
		if res.ExpVal != nil {
			line += " ev=" + bits(*res.ExpVal)
		}
		if res.TruncErr != 0 {
			line += " trunc=" + bits(res.TruncErr)
		}
		var keys []string
		for k := range res.Extra {
			if k != "auto_actual_ms" { // wall-clock time
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += " " + k + "=" + bits(res.Extra[k])
		}
		if res.Route != "" {
			line += " route=" + res.Route
		}
		return line
	}

	var got []string
	for _, name := range names {
		exec := core.Executor(s.Auto())
		if name != "auto" {
			exec = s.Executor(name)
		}
		for _, sub := range subs[name] {
			cell := name + "/" + sub
			if sub == "" {
				cell = name + "/default"
			}
			emit := func(format string, args ...any) {
				got = append(got, cell+" "+fmt.Sprintf(format, args...))
			}
			for _, seed := range []int64{0, 11} {
				for _, withObs := range []bool{false, true} {
					opts := core.RunOptions{Shots: 128, Seed: seed, Subbackend: sub}
					tag := fmt.Sprintf("seed=%d obs=none", seed)
					for _, c := range circuits {
						if withObs {
							opts.Observable = zzChain(c.NQubits)
							tag = fmt.Sprintf("seed=%d obs=zz", seed)
						}
						spec, err := core.SpecFromCircuit(c)
						if err != nil {
							t.Fatal(err)
						}
						res, err := exec.Execute(spec, opts)
						if err != nil {
							emit("single %s %s err=%v", c.Name, tag, err)
						} else {
							emit("single %s %s %s", c.Name, tag, row(res))
						}
						one, err := exec.(core.BatchExecutor).ExecuteBatch(spec, []core.Bindings{nil}, opts)
						if err != nil {
							emit("batch1 %s %s err=%v", c.Name, tag, err)
						} else {
							emit("batch1 %s %s %s", c.Name, tag, row(one[0]))
						}
					}
					if withObs {
						opts.Observable = zzChain(10)
					}
					batch, err := exec.(core.BatchExecutor).ExecuteBatch(ansatzSpec, bindings, opts)
					if err != nil {
						emit("batch qaoa-10 %s err=%v", tag, err)
						continue
					}
					for i, res := range batch {
						emit("batch qaoa-10[%d] %s %s", i, tag, row(res))
					}
				}
			}
			if res, err := exec.Execute(denseSpec, core.RunOptions{Shots: 128, Subbackend: sub}); err != nil {
				emit("single dense-12 seed=0 obs=none err=%v", err)
			} else {
				emit("single dense-12 seed=0 obs=none %s", row(res))
			}
			ge, ok := exec.(core.GradientExecutor)
			if !ok {
				emit("grad qaoa-10 unsupported")
				continue
			}
			grads, err := ge.ExecuteGradient(ansatzSpec, bindings, core.RunOptions{Subbackend: sub, Observable: zzChain(10)})
			if err != nil {
				emit("grad qaoa-10 err=%v", err)
				continue
			}
			for i, g := range grads {
				line := fmt.Sprintf("grad qaoa-10[%d] value=%s grad=", i, bits(g.Value))
				for _, d := range g.Grad {
					line += bits(d) + ","
				}
				emit("%s", line)
			}
		}
	}

	const path = "testdata/exec_digest.txt"
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if !checkAuto {
			t.Fatalf("re-record the digest at %d kernel workers (GOMAXPROCS=%d go test ...)", digestWorkers, digestWorkers)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if checkAuto || !strings.HasPrefix(line, "auto/") {
			want = append(want, line)
		}
	}
	if !checkAuto {
		t.Logf("kernel workers %d != %d: auto rows not checked", statevec.CurrentTuning().Workers, digestWorkers)
		kept := got[:0]
		for _, line := range got {
			if !strings.HasPrefix(line, "auto/") {
				kept = append(kept, line)
			}
		}
		got = kept
	}
	if len(want) != len(got) {
		t.Fatalf("%d digest rows, %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("executor result differs from the digest:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
