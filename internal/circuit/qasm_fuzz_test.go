package circuit_test

import (
	"reflect"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/workloads"
)

// FuzzParseQASM throws arbitrary text at the QASM parser, the first thing a
// circuit spec arriving over RPC meets. ParseQASM must return a circuit or
// an error, never panic, and whatever it accepts must serialize back to
// QASM that reparses to the same gate list.
func FuzzParseQASM(f *testing.F) {
	ansatz := circuit.New(3)
	ansatz.H(0).RZZ(0, 1, circuit.Sym("gamma0", 2)).RX(2, circuit.Param{Name: "beta0", Coeff: -0.5, Const: 0.25}).CP(1, 2, circuit.Bound(0.3))
	ansatz.Barrier().Reset(1).MeasureAll()
	for _, c := range []*circuit.Circuit{
		workloads.GHZ(4),
		workloads.HamSim(4, 2),
		workloads.TFIM(4, 2, 0.5, 1),
		workloads.RingQAOA(4, 1),
		workloads.HHL(workloads.HHLSize(5)),
		ansatz,
	} {
		src, err := c.ToSymbolicQASM()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nu2(pi/2,-pi) q[0];\nu3(1,2,3) q[1];\ncx q[0],q[1];\nmeasure q -> c;\nbarrier q[0],q[1];\n")
	f.Add("h q[0];\nqreg q[1];")
	f.Add("qreg q[1];\nrx(0/0) q[0];\nry(1*inf) q[0];")
	f.Add("qreg q[99999999];\nmeasure q -> c;")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := circuit.ParseQASM(src)
		if err != nil {
			return
		}
		out, err := c.ToSymbolicQASM()
		if err != nil {
			t.Fatalf("accepted circuit does not serialize: %v\nsource:\n%s", err, src)
		}
		back, err := circuit.ParseQASM(out)
		if err != nil {
			t.Fatalf("serialized circuit does not reparse: %v\nsource:\n%s\nserialized:\n%s", err, src, out)
		}
		if back.NQubits != c.NQubits || !reflect.DeepEqual(back.Gates, c.Gates) {
			t.Fatalf("round trip changed the circuit\nsource:\n%s\nserialized:\n%s", src, out)
		}
	})
}
