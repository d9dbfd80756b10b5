package circuit

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderAndCounts(t *testing.T) {
	c := New(3)
	c.H(0).CX(0, 1).CX(1, 2).RZ(2, Bound(0.5)).MeasureAll()
	if len(c.Gates) != 7 {
		t.Fatalf("gate count %d, want 7", len(c.Gates))
	}
	ops := c.CountOps()
	if ops["h"] != 1 || ops["cx"] != 2 || ops["rz"] != 1 || ops["measure"] != 3 {
		t.Fatalf("unexpected op histogram %v", ops)
	}
	if c.NumTwoQubitGates() != 2 {
		t.Fatalf("two-qubit count %d", c.NumTwoQubitGates())
	}
}

func TestAppendValidation(t *testing.T) {
	c := New(2)
	mustPanic(t, func() { c.H(2) })
	mustPanic(t, func() { c.CX(0, 0) })
	mustPanic(t, func() { c.Append(Gate{Kind: KindRZ, Qubits: []int{0}}) }) // missing param
	mustPanic(t, func() { New(0) })
}

func TestDepth(t *testing.T) {
	c := New(3)
	c.H(0).H(1).H(2) // depth 1: parallel
	if d := c.Depth(); d != 1 {
		t.Fatalf("depth %d, want 1", d)
	}
	c.CX(0, 1) // depth 2
	c.CX(1, 2) // depth 3
	if d := c.Depth(); d != 3 {
		t.Fatalf("depth %d, want 3", d)
	}
	c.Barrier()
	c.X(0) // barrier forces level 4 on all
	if d := c.Depth(); d != 4 {
		t.Fatalf("depth with barrier %d, want 4", d)
	}
}

func TestParamBinding(t *testing.T) {
	c := New(1)
	c.RX(0, Sym("theta", 2)) // angle = 2θ
	if c.IsBound() {
		t.Fatal("circuit should be unbound")
	}
	if got := c.ParamNames(); len(got) != 1 || got[0] != "theta" {
		t.Fatalf("param names %v", got)
	}
	b := c.Bind(map[string]float64{"theta": 0.25})
	if !b.IsBound() {
		t.Fatal("bound circuit still unbound")
	}
	if a := b.Gates[0].Angle(); math.Abs(a-0.5) > 1e-15 {
		t.Fatalf("bound angle %g, want 0.5", a)
	}
	// Original is untouched.
	if c.IsBound() {
		t.Fatal("Bind mutated the original circuit")
	}
	mustPanic(t, func() { c.Gates[0].Params[0].Value(nil) })
}

func TestInverseStructure(t *testing.T) {
	c := New(2)
	c.H(0).S(0).T(1).RX(1, Bound(0.3)).CX(0, 1)
	inv := c.Inverse()
	if len(inv.Gates) != len(c.Gates) {
		t.Fatalf("inverse gate count %d", len(inv.Gates))
	}
	if inv.Gates[0].Kind != KindCX {
		t.Fatalf("inverse should start with cx, got %s", inv.Gates[0].Kind.Name())
	}
	if inv.Gates[1].Kind != KindRX || math.Abs(inv.Gates[1].Angle()+0.3) > 1e-15 {
		t.Fatalf("rx not negated: %v", inv.Gates[1])
	}
	if inv.Gates[2].Kind != KindTdg || inv.Gates[3].Kind != KindSdg {
		t.Fatalf("s/t not daggered")
	}
	mustPanic(t, func() { New(1).Measure(0, 0).Inverse() })
}

func TestIsCliffordAndInteractionDistance(t *testing.T) {
	c := New(4)
	c.H(0).CX(0, 1).CZ(1, 2).S(3)
	if !c.IsClifford() {
		t.Fatal("expected Clifford")
	}
	c.T(0)
	if c.IsClifford() {
		t.Fatal("T gate should break Clifford")
	}
	if d := c.InteractionDistance(); d != 1 {
		t.Fatalf("interaction distance %d, want 1", d)
	}
	c.CX(0, 3)
	if d := c.InteractionDistance(); d != 3 {
		t.Fatalf("interaction distance %d, want 3", d)
	}
}

func TestQASMRoundTripStructural(t *testing.T) {
	c := New(3)
	c.H(0).X(1).Y(2).Z(0).S(1).Sdg(2).T(0).Tdg(1).
		RX(0, Bound(0.1)).RY(1, Bound(-0.2)).RZ(2, Bound(math.Pi/3)).
		P(0, Bound(0.7)).CX(0, 1).CY(1, 2).CZ(0, 2).
		CRX(0, 1, Bound(0.3)).CRY(1, 2, Bound(0.4)).CRZ(0, 2, Bound(0.5)).
		CP(0, 1, Bound(0.6)).SWAP(1, 2).RZZ(0, 1, Bound(0.8)).RXX(1, 2, Bound(0.9)).
		CCX(0, 1, 2).CSWAP(0, 1, 2).Barrier().MeasureAll()
	src, err := c.ToQASM()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseQASM(src)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, src)
	}
	if back.NQubits != c.NQubits || len(back.Gates) != len(c.Gates) {
		t.Fatalf("round trip shape mismatch: %d gates vs %d", len(back.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		a, b := c.Gates[i], back.Gates[i]
		if a.Kind != b.Kind {
			t.Fatalf("gate %d kind %s vs %s", i, a.Kind.Name(), b.Kind.Name())
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Fatalf("gate %d qubits %v vs %v", i, a.Qubits, b.Qubits)
			}
		}
		for j := range a.Params {
			if math.Abs(a.Params[j].Const-b.Params[j].Const) > 1e-15 {
				t.Fatalf("gate %d params %v vs %v", i, a.Params, b.Params)
			}
		}
	}
}

func TestQASMParseExpressions(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
rx(pi/2) q[0];
rz(-pi/4) q[1];
ry(2*pi/3 + 0.5) q[0];
u1(1e-3) q[1];
cx q[0],q[1];
measure q -> c;
`
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 7 {
		t.Fatalf("gate count %d, want 7 (incl. 2 measures)", len(c.Gates))
	}
	if a := c.Gates[0].Angle(); math.Abs(a-math.Pi/2) > 1e-12 {
		t.Fatalf("rx angle %g", a)
	}
	if a := c.Gates[1].Angle(); math.Abs(a+math.Pi/4) > 1e-12 {
		t.Fatalf("rz angle %g", a)
	}
	if a := c.Gates[2].Angle(); math.Abs(a-(2*math.Pi/3+0.5)) > 1e-12 {
		t.Fatalf("ry angle %g", a)
	}
}

func TestQASMErrors(t *testing.T) {
	cases := []string{
		"OPENQASM 3.0;\nqreg q[2];",
		"qreg q[0];",
		"qreg q[2];\nfoo q[0];",
		"qreg q[2];\nrx q[0];", // missing param
		"h q[0];",              // no qreg at all
	}
	for _, src := range cases {
		if _, err := ParseQASM(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestTranspileToBasic(t *testing.T) {
	c := New(3)
	c.SWAP(0, 1).RZZ(1, 2, Bound(0.4)).RXX(0, 2, Bound(0.2)).CCX(0, 1, 2).CSWAP(0, 1, 2).SX(1)
	out := Transpile(c, BasicGateSet())
	for _, g := range out.Gates {
		if !BasicGateSet()[g.Kind] {
			t.Fatalf("transpiled circuit still contains %s", g.Kind.Name())
		}
	}
	if len(out.Gates) <= len(c.Gates) {
		t.Fatalf("expected expansion, got %d gates", len(out.Gates))
	}
}

func TestTranspilePreservesSymbolicParams(t *testing.T) {
	c := New(2)
	c.RZZ(0, 1, Sym("gamma", 2))
	out := Transpile(c, BasicGateSet())
	names := out.ParamNames()
	if len(names) != 1 || names[0] != "gamma" {
		t.Fatalf("symbolic params lost: %v", names)
	}
	b := out.Bind(map[string]float64{"gamma": 0.5})
	if !b.IsBound() {
		t.Fatal("binding transpiled circuit failed")
	}
}

func TestStripMeasurements(t *testing.T) {
	c := New(2)
	c.H(0).Measure(0, 0).Barrier().CX(0, 1).Measure(1, 1)
	s := c.StripMeasurements()
	if len(s.Gates) != 2 {
		t.Fatalf("stripped gate count %d, want 2", len(s.Gates))
	}
	if !c.HasMeasurements() || s.HasMeasurements() {
		t.Fatal("measurement detection wrong")
	}
}

func TestCopyIsDeep(t *testing.T) {
	c := New(2)
	c.RX(0, Bound(1)).CX(0, 1)
	cp := c.Copy()
	cp.Gates[0].Params[0] = Bound(9)
	cp.Gates[1].Qubits[0] = 1
	cp.Gates[1].Qubits[1] = 0
	if c.Gates[0].Angle() != 1 || c.Gates[1].Qubits[0] != 0 {
		t.Fatal("Copy shares underlying storage")
	}
}

func TestQuickQASMRoundTripRandom(t *testing.T) {
	// Property: any random circuit over the QASM-expressible gate set round
	// trips through serialize+parse preserving structure.
	kinds := []Kind{KindH, KindX, KindY, KindZ, KindS, KindSdg, KindT, KindTdg,
		KindRX, KindRY, KindRZ, KindP, KindCX, KindCY, KindCZ, KindCRZ, KindCP,
		KindSWAP, KindRZZ, KindCCX}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		c := New(n)
		for i := 0; i < 20; i++ {
			k := kinds[rng.Intn(len(kinds))]
			qs := rng.Perm(n)[:max(1, k.NumQubits())]
			g := Gate{Kind: k, Qubits: qs}
			for j := 0; j < k.NumParams(); j++ {
				g.Params = append(g.Params, Bound(rng.NormFloat64()))
			}
			c.Append(g)
		}
		src, err := c.ToQASM()
		if err != nil {
			return false
		}
		back, err := ParseQASM(src)
		if err != nil {
			return false
		}
		if len(back.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			if back.Gates[i].Kind != c.Gates[i].Kind {
				return false
			}
			for j := range c.Gates[i].Params {
				if math.Abs(back.Gates[i].Params[j].Const-c.Gates[i].Params[j].Const) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolicQASMRoundTrip(t *testing.T) {
	// A parametric circuit must round-trip through the symbolic wire form
	// with names, coefficients, and offsets intact.
	c := New(3)
	c.H(0)
	c.RX(0, Sym("beta0", 2))
	c.RZZ(0, 1, Sym("gamma0", -1.5))
	c.RY(2, Param{Name: "t0", Coeff: 0.5, Const: 0.25})
	c.P(1, Sym("phi", 1))
	c.CP(1, 2, Sym("phi", 3))
	c.RZ(2, Bound(0.75))
	c.MeasureAll()
	qasm, err := c.ToSymbolicQASM()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseQASM(qasm)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, qasm)
	}
	wantNames := []string{"beta0", "gamma0", "phi", "t0"}
	names := back.ParamNames()
	if len(names) != len(wantNames) {
		t.Fatalf("params %v, want %v", names, wantNames)
	}
	for i := range wantNames {
		if names[i] != wantNames[i] {
			t.Fatalf("params %v, want %v", names, wantNames)
		}
	}
	// Binding both circuits identically must give identical bound QASM.
	binding := map[string]float64{"beta0": 0.3, "gamma0": 0.7, "t0": -1.2, "phi": 2.1}
	origQASM, err := c.Bind(binding).ToQASM()
	if err != nil {
		t.Fatal(err)
	}
	backQASM, err := back.Bind(binding).ToQASM()
	if err != nil {
		t.Fatal(err)
	}
	if origQASM != backQASM {
		t.Fatalf("bound round trip mismatch:\n%s\nvs\n%s", origQASM, backQASM)
	}
}

// TestParsedCircuitDoesNotPinSource: a parsed parametric circuit keeps no
// copy of the QASM text alive, only its parameter names. A spec store keeps
// each spec's QASM as its key beside the parse, so a parse that pinned the
// text too would hold it twice.
func TestParsedCircuitDoesNotPinSource(t *testing.T) {
	const pad = 4 << 20
	src := "OPENQASM 2.0;\nqreg q[1];\n" + strings.Repeat(" ", pad) + "rx(2*theta) q[0];\n"
	c, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	src = ""
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > pad {
		t.Fatalf("%d bytes live beside a one-gate circuit parsed from %d bytes of QASM", m.HeapAlloc, pad)
	}
	runtime.KeepAlive(c)
	if names := c.ParamNames(); len(names) != 1 || names[0] != "theta" {
		t.Fatalf("params %v, want [theta]", names)
	}
}

func TestSymbolicQASMRejectsPiName(t *testing.T) {
	// "pi" is the QASM constant: a parameter with that name would parse
	// back as a bound number and silently ignore its bindings.
	c := New(1)
	c.RX(0, Sym("pi", 2))
	if _, err := c.ToSymbolicQASM(); err == nil {
		t.Fatal(`parameter named "pi" serialized symbolically`)
	}
	// Names outside the identifier grammar would reparse as a different
	// expression (e.g. "b+2" becomes parameter "b" plus a constant).
	c2 := New(1)
	c2.RX(0, Sym("b+2", 1))
	if _, err := c2.ToSymbolicQASM(); err == nil {
		t.Fatal(`parameter named "b+2" serialized symbolically`)
	}
}

func TestToQASMRejectsUnbound(t *testing.T) {
	c := New(1)
	c.RX(0, Sym("a", 1))
	if _, err := c.ToQASM(); err == nil {
		t.Fatal("unbound circuit serialized by ToQASM")
	}
}

func TestBindLeavesUnknownSymbolic(t *testing.T) {
	// Partial bindings must stay detectable, not panic.
	c := New(1)
	c.RX(0, Sym("a", 1)).RY(0, Sym("b", 1))
	half := c.Bind(map[string]float64{"a": 0.5})
	if half.IsBound() {
		t.Fatal("partial binding reported bound")
	}
	if names := half.ParamNames(); len(names) != 1 || names[0] != "b" {
		t.Fatalf("leftover params %v", names)
	}
}

func TestMatrix2QUnitarity(t *testing.T) {
	for _, k := range []Kind{KindCX, KindCY, KindCZ, KindSWAP, KindCRX, KindCRY, KindCRZ, KindCP, KindRZZ, KindRXX} {
		m := Matrix2Q(k, 0.37)
		if !m.IsUnitary(1e-12) {
			t.Fatalf("%s matrix not unitary", k.Name())
		}
	}
}

func TestMatrix1QUnitarity(t *testing.T) {
	for _, k := range []Kind{KindI, KindH, KindX, KindY, KindZ, KindS, KindSdg, KindT, KindTdg, KindSX, KindRX, KindRY, KindRZ, KindP} {
		m := Matrix1Q(k, 0.77)
		// Convert to linalg matrix for the unitarity check.
		mm := FromMat2(m)
		if !mm.IsUnitary(1e-12) {
			t.Fatalf("%s matrix not unitary", k.Name())
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestDump(t *testing.T) {
	c := New(2)
	c.H(0).CRZ(0, 1, Sym("g", 1))
	s := c.String()
	if !strings.Contains(s, "crz") || !strings.Contains(s, "g") {
		t.Fatalf("String() output missing content:\n%s", s)
	}
}
