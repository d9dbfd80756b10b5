package circuit

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// ToQASM serializes a bound circuit as OpenQASM 2.0 using the extended
// qelib1 gate vocabulary. Dense unitary gates have no QASM form and must be
// transpiled away first.
func (c *Circuit) ToQASM() (string, error) {
	if !c.IsBound() {
		return "", fmt.Errorf("circuit: cannot serialize unbound circuit (params %v); use ToSymbolicQASM for the parametric wire form", c.ParamNames())
	}
	return c.serialize()
}

// ToSymbolicQASM serializes a circuit keeping unbound parameters symbolic:
// a gate angle Coeff*θ(name)+Const is written as the affine expression
// "Coeff*name+Const" that ParseQASM round-trips back into a symbolic Param.
// This is the parametric wire format of batched execution: the ansatz is
// transmitted once and each batch element carries only its binding values.
// Parameter names must fit the wire grammar [A-Za-z_][A-Za-z0-9_]* and must
// not be "pi" (the QASM constant): anything else would reparse as a
// different expression on the receiving side and silently ignore or
// misroute its bindings.
func (c *Circuit) ToSymbolicQASM() (string, error) {
	for _, name := range c.ParamNames() {
		if name == "pi" {
			return "", fmt.Errorf("circuit: parameter name %q collides with the QASM constant and cannot round-trip symbolically", name)
		}
		if !symNameRe.MatchString(name) {
			return "", fmt.Errorf("circuit: parameter name %q is not a valid symbolic identifier ([A-Za-z_][A-Za-z0-9_]*)", name)
		}
	}
	return c.serialize()
}

// symNameRe is the identifier grammar of the symbolic wire form.
var symNameRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

func (c *Circuit) serialize() (string, error) {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\ncreg c[%d];\n", c.NQubits, c.NQubits)
	for _, g := range c.Gates {
		switch g.Kind {
		case KindMeasure:
			fmt.Fprintf(&b, "measure q[%d] -> c[%d];\n", g.Qubits[0], g.Cbit)
			continue
		case KindBarrier:
			if len(g.Qubits) == 0 {
				b.WriteString("barrier q;\n")
			} else {
				b.WriteString("barrier ")
				writeQubits(&b, g.Qubits)
				b.WriteString(";\n")
			}
			continue
		case KindReset:
			fmt.Fprintf(&b, "reset q[%d];\n", g.Qubits[0])
			continue
		case KindUnitary:
			return "", fmt.Errorf("circuit: dense unitary gate has no QASM 2.0 form; transpile first")
		case KindI:
			fmt.Fprintf(&b, "id q[%d];\n", g.Qubits[0])
			continue
		case KindP:
			fmt.Fprintf(&b, "u1(%s) q[%d];\n", fmtParam(g.Params[0]), g.Qubits[0])
			continue
		case KindCP:
			fmt.Fprintf(&b, "cu1(%s) q[%d],q[%d];\n", fmtParam(g.Params[0]), g.Qubits[0], g.Qubits[1])
			continue
		}
		b.WriteString(g.Kind.Name())
		if len(g.Params) > 0 {
			b.WriteString("(")
			for i, p := range g.Params {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(fmtParam(p))
			}
			b.WriteString(")")
		}
		b.WriteString(" ")
		writeQubits(&b, g.Qubits)
		b.WriteString(";\n")
	}
	return b.String(), nil
}

func writeQubits(b *strings.Builder, qs []int) {
	for i, q := range qs {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(b, "q[%d]", q)
	}
}

func fmtAngle(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

// fmtParam renders a parameter: bound values as plain numbers, symbolic ones
// in the canonical affine form "coeff*name" or "coeff*name±const".
func fmtParam(p Param) string {
	if p.IsBound() {
		return fmtAngle(p.Const)
	}
	s := fmtAngle(p.Coeff) + "*" + p.Name
	if p.Const != 0 {
		if p.Const > 0 {
			s += "+"
		}
		s += fmtAngle(p.Const)
	}
	return s
}

// symParamRe matches the canonical symbolic form emitted by fmtParam.
var symParamRe = regexp.MustCompile(
	`^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*\*\s*([A-Za-z_][A-Za-z0-9_]*)\s*([-+][0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)?\s*$`)

// parseParamExpr parses one gate parameter: constant arithmetic expressions
// become bound parameters; the affine symbolic form "coeff*name±const"
// becomes a symbolic one. Numeric evaluation is tried first so constant
// expressions containing "pi" never shadow a symbol.
func parseParamExpr(s string) (Param, error) {
	s = strings.TrimSpace(s)
	if v, err := evalExpr(s); err == nil {
		return Bound(v), nil
	}
	m := symParamRe.FindStringSubmatch(s)
	if m == nil || m[2] == "pi" {
		return Param{}, fmt.Errorf("qasm: cannot evaluate parameter %q", s)
	}
	coeff, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return Param{}, fmt.Errorf("qasm: bad coefficient in %q", s)
	}
	p := Param{Name: m[2], Coeff: coeff}
	if m[3] != "" {
		c, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return Param{}, fmt.Errorf("qasm: bad constant in %q", s)
		}
		p.Const = c
	}
	return p, nil
}

var qasmGateKinds = map[string]Kind{
	"id": KindI, "h": KindH, "x": KindX, "y": KindY, "z": KindZ,
	"s": KindS, "sdg": KindSdg, "t": KindT, "tdg": KindTdg, "sx": KindSX,
	"rx": KindRX, "ry": KindRY, "rz": KindRZ, "p": KindP, "u1": KindP,
	"cx": KindCX, "CX": KindCX, "cy": KindCY, "cz": KindCZ,
	"crx": KindCRX, "cry": KindCRY, "crz": KindCRZ, "cp": KindCP, "cu1": KindCP,
	"swap": KindSWAP, "rzz": KindRZZ, "rxx": KindRXX,
	"ccx": KindCCX, "cswap": KindCSWAP,
}

// ParseQASM parses the OpenQASM 2.0 subset produced by ToQASM (plus u2/u3,
// which are lowered to rotation sequences). It supports a single quantum and
// a single classical register.
func ParseQASM(src string) (*Circuit, error) {
	// Strip comments, normalize whitespace, split on ';' and '{'/'}' is not
	// supported (no gate definitions in the accepted subset).
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if idx := strings.Index(line, "//"); idx >= 0 {
			line = line[:idx]
		}
		clean.WriteString(line)
		clean.WriteString("\n")
	}
	stmts := strings.Split(clean.String(), ";")
	var c *Circuit
	qreg, creg := "", ""
	ncbits := 0
	pending := []func() error{} // applied once the circuit exists
	for _, raw := range stmts {
		stmt := strings.TrimSpace(raw)
		if stmt == "" {
			continue
		}
		switch {
		case strings.HasPrefix(stmt, "OPENQASM"):
			if !strings.Contains(stmt, "2.0") {
				return nil, fmt.Errorf("qasm: unsupported version in %q", stmt)
			}
		case strings.HasPrefix(stmt, "include"):
			// qelib1.inc is implicit.
		case strings.HasPrefix(stmt, "qreg"):
			name, n, err := parseReg(stmt[4:])
			if err != nil {
				return nil, err
			}
			if c != nil {
				return nil, fmt.Errorf("qasm: multiple qregs are not supported")
			}
			if n > maxQASMQubits {
				return nil, fmt.Errorf("qasm: qreg of %d qubits exceeds the parser's cap of %d", n, maxQASMQubits)
			}
			qreg = name
			c = New(n)
			for _, f := range pending {
				if err := f(); err != nil {
					return nil, err
				}
			}
			pending = nil
		case strings.HasPrefix(stmt, "creg"):
			name, n, err := parseReg(stmt[4:])
			if err != nil {
				return nil, err
			}
			creg, ncbits = name, n
			_ = ncbits
		default:
			stmt := stmt // capture
			apply := func() error { return applyQASMStmt(c, qreg, creg, stmt) }
			if c == nil {
				pending = append(pending, apply)
				continue
			}
			if err := apply(); err != nil {
				return nil, err
			}
		}
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declared")
	}
	return c, nil
}

func parseReg(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	lb := strings.Index(s, "[")
	rb := strings.Index(s, "]")
	if lb < 0 || rb < lb {
		return "", 0, fmt.Errorf("qasm: malformed register %q", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(s[lb+1 : rb]))
	if err != nil || n <= 0 {
		return "", 0, fmt.Errorf("qasm: bad register size in %q", s)
	}
	return strings.TrimSpace(s[:lb]), n, nil
}

func applyQASMStmt(c *Circuit, qreg, creg, stmt string) error {
	if strings.HasPrefix(stmt, "measure") {
		rest := strings.TrimSpace(stmt[len("measure"):])
		parts := strings.Split(rest, "->")
		if len(parts) != 2 {
			return fmt.Errorf("qasm: malformed measure %q", stmt)
		}
		qs, err := parseOperand(strings.TrimSpace(parts[0]), qreg, c.NQubits)
		if err != nil {
			return err
		}
		cs, err := parseOperand(strings.TrimSpace(parts[1]), creg, c.NQubits)
		if err != nil {
			return err
		}
		if len(qs) != len(cs) {
			return fmt.Errorf("qasm: measure width mismatch in %q", stmt)
		}
		for i := range qs {
			c.Measure(qs[i], cs[i])
		}
		return nil
	}
	if strings.HasPrefix(stmt, "barrier") {
		rest := strings.TrimSpace(stmt[len("barrier"):])
		if rest == qreg || rest == "" {
			c.Barrier()
			return nil
		}
		var all []int
		for _, op := range strings.Split(rest, ",") {
			qs, err := parseOperand(strings.TrimSpace(op), qreg, c.NQubits)
			if err != nil {
				return err
			}
			all = append(all, qs...)
		}
		return add(c, Gate{Kind: KindBarrier, Qubits: all})
	}
	if strings.HasPrefix(stmt, "reset") {
		qs, err := parseOperand(strings.TrimSpace(stmt[len("reset"):]), qreg, c.NQubits)
		if err != nil {
			return err
		}
		for _, q := range qs {
			c.Reset(q)
		}
		return nil
	}
	// Gate application: name(params)? operands
	name := stmt
	paramsStr := ""
	operandStr := ""
	if lp := strings.Index(stmt, "("); lp >= 0 {
		rp := strings.Index(stmt, ")")
		if rp < lp {
			return fmt.Errorf("qasm: malformed gate %q", stmt)
		}
		name = strings.TrimSpace(stmt[:lp])
		paramsStr = stmt[lp+1 : rp]
		operandStr = strings.TrimSpace(stmt[rp+1:])
	} else {
		fields := strings.Fields(stmt)
		if len(fields) < 2 {
			return fmt.Errorf("qasm: malformed statement %q", stmt)
		}
		name = fields[0]
		operandStr = strings.TrimSpace(strings.Join(fields[1:], " "))
	}
	var params []Param
	if paramsStr != "" {
		for _, ps := range splitTopLevel(paramsStr) {
			p, err := parseParamExpr(ps)
			if err != nil {
				return fmt.Errorf("qasm: bad parameter %q: %w", ps, err)
			}
			params = append(params, p)
		}
	}
	var qubits []int
	for _, op := range strings.Split(operandStr, ",") {
		qs, err := parseOperand(strings.TrimSpace(op), qreg, c.NQubits)
		if err != nil {
			return err
		}
		if len(qs) != 1 {
			return fmt.Errorf("qasm: whole-register gate operands are not supported in %q", stmt)
		}
		qubits = append(qubits, qs[0])
	}
	switch name {
	case "u2":
		if len(params) != 2 || len(qubits) != 1 {
			return fmt.Errorf("qasm: u2 needs 2 params and 1 qubit")
		}
		for _, p := range params {
			if !p.IsBound() {
				return fmt.Errorf("qasm: symbolic parameters are not supported on u2")
			}
		}
		// u2(φ,λ) = rz(φ) ry(π/2) rz(λ) up to global phase.
		c.RZ(qubits[0], Bound(params[1].Const))
		c.RY(qubits[0], Bound(math.Pi/2))
		c.RZ(qubits[0], Bound(params[0].Const))
		return nil
	case "u3", "u", "U":
		if len(params) != 3 || len(qubits) != 1 {
			return fmt.Errorf("qasm: u3 needs 3 params and 1 qubit")
		}
		for _, p := range params {
			if !p.IsBound() {
				return fmt.Errorf("qasm: symbolic parameters are not supported on u3")
			}
		}
		c.RZ(qubits[0], Bound(params[2].Const))
		c.RY(qubits[0], Bound(params[0].Const))
		c.RZ(qubits[0], Bound(params[1].Const))
		return nil
	}
	kind, ok := qasmGateKinds[name]
	if !ok {
		return fmt.Errorf("qasm: unknown gate %q", name)
	}
	if kind.NumParams() != len(params) {
		return fmt.Errorf("qasm: gate %s got %d params, wants %d", name, len(params), kind.NumParams())
	}
	return add(c, Gate{Kind: kind, Qubits: qubits, Params: params})
}

// maxQASMQubits bounds a parsed register, so a hostile size cannot make a
// whole-register operand allocate without limit.
const maxQASMQubits = 1 << 16

// add appends a parsed gate to c, or returns why it cannot join: input is
// refused with an error, never by Append's panic.
func add(c *Circuit, g Gate) error {
	if err := c.check(g); err != nil {
		return fmt.Errorf("qasm: %w", err)
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// parseOperand parses "q[3]" into {3} and a bare register name into all indices.
func parseOperand(s, reg string, width int) ([]int, error) {
	if s == reg {
		all := make([]int, width)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	lb := strings.Index(s, "[")
	rb := strings.Index(s, "]")
	if lb < 0 || rb < lb {
		return nil, fmt.Errorf("qasm: malformed operand %q", s)
	}
	name := strings.TrimSpace(s[:lb])
	if reg != "" && name != reg {
		return nil, fmt.Errorf("qasm: unknown register %q", name)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(s[lb+1 : rb]))
	if err != nil || idx < 0 || idx >= width {
		return nil, fmt.Errorf("qasm: bad index in %q (register width %d)", s, width)
	}
	return []int{idx}, nil
}

func splitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// evalExpr evaluates a constant arithmetic expression with +,-,*,/, parens
// and the constant pi — the expression language of OpenQASM 2.0 parameters.
func evalExpr(s string) (float64, error) {
	p := &exprParser{src: s}
	v, err := p.parseAddSub()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("trailing input at %d in %q", p.pos, s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite angle", s)
	}
	return v, nil
}

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *exprParser) parseAddSub() (float64, error) {
	v, err := p.parseMulDiv()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		switch p.peek() {
		case '+':
			p.pos++
			r, err := p.parseMulDiv()
			if err != nil {
				return 0, err
			}
			v += r
		case '-':
			p.pos++
			r, err := p.parseMulDiv()
			if err != nil {
				return 0, err
			}
			v -= r
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseMulDiv() (float64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		switch p.peek() {
		case '*':
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= r
		case '/':
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			v /= r
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseUnary() (float64, error) {
	p.skipSpace()
	if p.peek() == '-' {
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	}
	if p.peek() == '+' {
		p.pos++
		return p.parseUnary()
	}
	return p.parseAtom()
}

func (p *exprParser) parseAtom() (float64, error) {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		v, err := p.parseAddSub()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return 0, fmt.Errorf("missing ')' in %q", p.src)
		}
		p.pos++
		return v, nil
	}
	start := p.pos
	for p.pos < len(p.src) {
		ch := p.src[p.pos]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' || ch == 'E' ||
			(ch >= 'a' && ch <= 'z' && ch != 'e') || ch == '_' ||
			((ch == '+' || ch == '-') && p.pos > start && (p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E')) {
			p.pos++
			continue
		}
		break
	}
	tok := p.src[start:p.pos]
	if tok == "" {
		return 0, fmt.Errorf("empty token at %d in %q", p.pos, p.src)
	}
	if tok == "pi" {
		return math.Pi, nil
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) { // ParseFloat also reads "inf" and "nan"
		return 0, fmt.Errorf("bad number %q", tok)
	}
	return v, nil
}
