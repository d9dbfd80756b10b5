// Package core implements the Quantum Framework's orchestration layer — the
// paper's primary contribution. It contains:
//
//   - the standardized circuit/task descriptions exchanged between frontends
//     and backends (CircuitSpec, RunOptions, Result),
//   - the Quantum Platform Manager (QPM): the central dispatcher owning task
//     queues and circuit lifecycle (submit / wait / reap),
//   - the Quantum Resource Controller (QRC): the worker threads that launch
//     backend executions across the allocation,
//   - the QFwBackend frontend used by applications, speaking to QPMs over
//     the DEFw RPC layer with synchronous and asynchronous calls,
//   - the batched parametric pipeline (CircuitSpec.Params + Bindings,
//     Frontend.RunBatch, QPM exec_batch, BatchExecutor): one
//     symbolic ansatz ships per optimizer iteration instead of N bound
//     copies, fanned across the QRC workers and parsed once per ansatz in
//     the session's one spec store (ParseCache),
//   - the deployment bootstrap (Launch) that reproduces the paper's Fig. 1
//     flow: SLURM heterogeneous job → DVM → QPM services → teardown.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"qfw/internal/circuit"
)

// CircuitSpec is the standardized circuit description every backend QPM
// accepts: OpenQASM 2.0 text plus metadata. Using a serialized exchange
// format (rather than in-memory pointers) keeps the frontend and backends
// decoupled exactly as in the paper.
//
// A spec may be parametric: the QASM then contains symbolic gate angles
// (the affine "coeff*name±const" form) and Params lists their names. A
// parametric spec is shipped once per batch and each execution element
// supplies one Bindings assignment — the optimizer iteration transmits the
// ansatz once instead of N bound copies.
type CircuitSpec struct {
	Name    string   `json:"name,omitempty"`
	NQubits int      `json:"nqubits"`
	QASM    string   `json:"qasm"`
	Params  []string `json:"params,omitempty"`
}

// Bindings assigns concrete values to a parametric spec's symbolic
// parameters; one Bindings per batch element.
type Bindings map[string]float64

// SpecFromCircuit serializes a bound circuit.
func SpecFromCircuit(c *circuit.Circuit) (CircuitSpec, error) {
	qasm, err := c.ToQASM()
	if err != nil {
		return CircuitSpec{}, err
	}
	return CircuitSpec{Name: c.Name, NQubits: c.NQubits, QASM: qasm}, nil
}

// SpecFromParametric serializes a circuit keeping symbolic parameters
// unbound — the wire form of batched execution. Bound circuits are accepted
// too and yield an ordinary (non-parametric) spec.
func SpecFromParametric(c *circuit.Circuit) (CircuitSpec, error) {
	qasm, err := c.ToSymbolicQASM()
	if err != nil {
		return CircuitSpec{}, err
	}
	return CircuitSpec{Name: c.Name, NQubits: c.NQubits, QASM: qasm, Params: c.ParamNames()}, nil
}

// IsParametric reports whether the spec carries unbound symbolic parameters.
func (s CircuitSpec) IsParametric() bool { return len(s.Params) > 0 }

// Hash returns a content digest of the spec: the first 16 bytes of
// sha256("<NQubits>\x00<QASM>") in hex. The serving layer's result cache
// and the fault injector key by it; the spec store keys by the content
// itself and does not hash.
func (s CircuitSpec) Hash() string {
	h := sha256.New()
	var head [24]byte
	h.Write(append(strconv.AppendInt(head[:0], int64(s.NQubits), 10), 0))
	// The QASM goes in without a copy: the hasher only reads its input.
	h.Write(unsafe.Slice(unsafe.StringData(s.QASM), len(s.QASM)))
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])[:16])
}

// Circuit parses the spec back into the IR.
func (s CircuitSpec) Circuit() (*circuit.Circuit, error) {
	c, err := circuit.ParseQASM(s.QASM)
	if err != nil {
		return nil, err
	}
	c.Name = s.Name
	return c, nil
}

// RunOptions configure one execution request.
type RunOptions struct {
	Shots      int    `json:"shots,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Subbackend string `json:"subbackend,omitempty"`

	// Placement is the (#N, #P) layout from the paper's secondary x-axes.
	Nodes        int `json:"nodes,omitempty"`
	ProcsPerNode int `json:"procs_per_node,omitempty"`

	// MPS/TN engine knobs.
	MaxBond int     `json:"max_bond,omitempty"`
	Cutoff  float64 `json:"cutoff,omitempty"`

	// Observable, when set, asks the backend to also return the expectation
	// value of this diagonal operator over the final state.
	Observable *Observable `json:"observable,omitempty"`

	// TimeoutMS, when positive, is the per-task deadline in milliseconds,
	// counted from submission (queue wait included). A task that misses it
	// fails with ErrDeadlineExceeded; a hung executor is abandoned and its
	// worker slot freed. Riding RunOptions, the deadline crosses the DEFw
	// RPC boundary with every submission.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ForElement derives the options of one batch element: element i of a batch
// gets a distinct deterministic seed, matching the seed schedule a serial
// loop over the same evaluations would have produced.
func (o RunOptions) ForElement(i int) RunOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Seed += int64(i)
	return o
}

// Timings carries the per-task timing instrumentation QFw unifies across
// backends (milliseconds): the full breakdown of where a request's time
// went, populated layer by layer (serving layer, QPM, retry envelope) and
// carried through the DEFw RPCs so clients see it. TotalMS is maintained
// as the exact sum of the component fields (see Sum), so a breakdown
// always accounts for the whole reported latency.
type Timings struct {
	// CacheLookupMS is the serving layer's content-addressed cache probe.
	CacheLookupMS float64 `json:"cache_lookup_ms,omitempty"`
	// CoalesceWaitMS is the serving-layer queue wait: time from admission
	// to the dispatch of the element's unit (the name predates the removal
	// of submission coalescing and is kept for the wire format).
	CoalesceWaitMS float64 `json:"coalesce_wait_ms,omitempty"`
	// QueueMS is time waiting in the QPM queue for a QRC worker.
	QueueMS float64 `json:"queue_ms"`
	// ExecMS is backend execution time (retry backoff excluded; for
	// batch-native chunks it is the chunk mean, elements share one call).
	ExecMS float64 `json:"exec_ms"`
	// RetryBackoffMS is the total backoff slept between retry attempts.
	RetryBackoffMS float64 `json:"retry_backoff_ms,omitempty"`
	// Attempts counts executor attempts (1 = first try succeeded).
	Attempts int `json:"attempts,omitempty"`
	// CacheHit marks results replayed from the serving layer's result
	// cache.
	CacheHit bool    `json:"cache_hit,omitempty"`
	TotalMS  float64 `json:"total_ms"`
}

// Sum returns the component total of the breakdown; the layers populating
// Timings set TotalMS to exactly this, so Sum() == TotalMS holds for every
// served result.
func (t Timings) Sum() float64 {
	return t.CacheLookupMS + t.CoalesceWaitMS + t.QueueMS + t.ExecMS + t.RetryBackoffMS
}

// Result is QFw's unified return format.
type Result struct {
	TaskID     string             `json:"task_id"`
	Backend    string             `json:"backend"`
	Subbackend string             `json:"subbackend,omitempty"`
	Counts     map[string]int     `json:"counts,omitempty"`
	ExpVal     *float64           `json:"expval,omitempty"` // set when an Observable was requested
	TruncErr   float64            `json:"trunc_err,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
	Route      string             `json:"route,omitempty"` // "backend/sub (rule)" when auto-routed
	Timings    Timings            `json:"timings"`
}

// Status is the lifecycle state of a QPM task.
type Status string

// Task states.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// ErrInfeasible marks configurations that exceed the platform budget
// (memory, size caps, walltime). The benchmark harness renders these as the
// paper's red-X missing points rather than failures.
var ErrInfeasible = errors.New("infeasible")

// Infeasible wraps a formatted message with ErrInfeasible.
func Infeasible(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInfeasible, fmt.Sprintf(format, args...))
}

// IsInfeasible detects ErrInfeasible even after the error has crossed an
// RPC boundary and been flattened to a string.
func IsInfeasible(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInfeasible) {
		return true
	}
	return strings.Contains(err.Error(), ErrInfeasible.Error())
}

// ErrDraining marks submissions rejected because the service is shutting
// down gracefully: admission is closed while in-flight work finishes.
var ErrDraining = errors.New("draining: admission closed")

// IsDraining detects ErrDraining even after the error has crossed an RPC
// boundary and been flattened to a string.
func IsDraining(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDraining) {
		return true
	}
	return strings.Contains(err.Error(), ErrDraining.Error())
}

// ErrDeadlineExceeded marks tasks that missed their RunOptions.TimeoutMS
// deadline — while queued, mid-execution, or hung in a backend. It is
// permanent by construction: the retry policy never re-attempts it.
var ErrDeadlineExceeded = errors.New("deadline exceeded")

// IsDeadlineExceeded detects ErrDeadlineExceeded even after the error has
// crossed an RPC boundary and been flattened to a string.
func IsDeadlineExceeded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDeadlineExceeded) {
		return true
	}
	return strings.Contains(err.Error(), ErrDeadlineExceeded.Error())
}

// ErrPending marks sub-backends that are integrated but blocked (Table 1's
// "TTN pending" entry); ErrPlanned marks announced-but-unimplemented ones.
var (
	ErrPending = errors.New("sub-backend pending")
	ErrPlanned = errors.New("sub-backend planned")
)

// ExecResult is what a backend executor returns to the QPM, which then
// marshals it into the unified Result.
type ExecResult struct {
	Counts   map[string]int
	ExpVal   *float64
	TruncErr float64
	Extra    map[string]float64
	Route    string
}

// Coupling is one quadratic term of a diagonal observable.
type Coupling struct {
	I int     `json:"i"`
	J int     `json:"j"`
	V float64 `json:"v"`
}

// PauliTerm is one general Pauli-string term: Coeff * P(Ops), with Ops[q]
// in {'I','X','Y','Z'} for qubit q.
type PauliTerm struct {
	Coeff float64 `json:"coeff"`
	Ops   string  `json:"ops"`
}

// Observable is an observable attached to a run request:
// H = Σ Fields[i] Z_i + Σ Couplings V Z_i Z_j + Σ Paulis Coeff·P.
// Diagonal observables (no Paulis) are evaluable on every backend (exactly
// on local simulators, from counts on the cloud path); general Pauli terms
// need a local simulator backend.
//
// The diagonal form is compiled once per Observable value, by the first
// EnergyOfIndex call (concurrent first calls are safe), and never rebuilt:
// build the observable completely, then evaluate it, and do not mutate it
// afterwards. It holds a sync.Once, so an Observable must not be copied by
// value (go vet's copylocks check enforces this); being unexported, it is
// invisible to JSON, the wire and the serve cache key.
type Observable struct {
	Fields    []float64   `json:"fields"`
	Couplings []Coupling  `json:"couplings,omitempty"`
	Paulis    []PauliTerm `json:"paulis,omitempty"`

	diag diagonal
}

// diagTableMaxBits caps the tabulated width: 2^20 energies are 8 MiB, half
// the 20-qubit state they are read against, and no request can buy more
// whatever qubits it names. A wider observable walks its compiled terms per
// index instead.
const diagTableMaxBits = 20

// diagonal is the compiled form of a diagonal observable: its non-zero
// terms in Fields, Couplings, Paulis order — the order the energy sums in —
// and, when the highest qubit they touch is below diagTableMaxBits, the
// table of the 2^w energies over the w qubits touched.
type diagonal struct {
	once    sync.Once
	nondiag bool // a term with X or Y: evaluation panics, as it always has
	terms   []diagTerm
	table   []float64
}

// diagTerm adds +c to the energy of a basis index with an even number of
// mask bits set and −c otherwise.
type diagTerm struct {
	c    float64
	mask uint64
}

// zbit is qubit q's bit of a basis index; a qubit no index can address
// reads as |0⟩ (Validate rejects those against the circuit width).
func zbit(q int) uint64 {
	if q < 0 || q >= 63 {
		return 0
	}
	return 1 << uint(q)
}

// compiled returns the diagonal form, building it on first use.
func (o *Observable) compiled() *diagonal {
	d := &o.diag
	d.once.Do(func() { d.compile(o) })
	if d.nondiag {
		panic("core: non-diagonal Pauli term in diagonal evaluation")
	}
	return d
}

func (d *diagonal) compile(o *Observable) {
	var touched uint64
	add := func(c float64, mask uint64) {
		if c != 0 { // a zero term adds ±0, which changes no sum
			d.terms = append(d.terms, diagTerm{c, mask})
			touched |= mask
		}
	}
	for i, f := range o.Fields {
		add(f, zbit(i))
	}
	for _, c := range o.Couplings {
		add(c.V, zbit(c.I)^zbit(c.J))
	}
	for _, t := range o.Paulis {
		var mask uint64
		for q := 0; q < len(t.Ops); q++ {
			switch t.Ops[q] {
			case 'Z':
				mask |= zbit(q)
			case 'I':
			default:
				d.nondiag = true
				return
			}
		}
		add(t.Coeff, mask)
	}
	if w := bits.Len64(touched); w <= diagTableMaxBits {
		d.table = make([]float64, 1<<uint(w))
		for idx := range d.table {
			d.table[idx] = d.walk(idx)
		}
	}
}

// walk sums the terms in order, each as ±c with the sign bit set by the
// parity of idx under the term's mask: the float64 that the product of c
// with one ±1 factor per qubit yields, without a call per factor.
func (d *diagonal) walk(idx int) float64 {
	var e float64
	for _, t := range d.terms {
		odd := uint64(bits.OnesCount64(uint64(idx)&t.mask) & 1)
		e += math.Float64frombits(math.Float64bits(t.c) ^ odd<<63)
	}
	return e
}

// Validate checks the observable against an n-qubit circuit: every non-zero
// term must act inside [0, n), every Pauli string be at most n characters
// of IXYZ. Engines disagree on (or panic over) anything else, so executors
// call this once the circuit is parsed, before any engine runs. A nil
// observable is valid.
func (o *Observable) Validate(n int) error {
	if o == nil {
		return nil
	}
	const misfit = "observable does not fit the %d-qubit circuit: "
	for i := max(n, 0); i < len(o.Fields); i++ {
		if o.Fields[i] != 0 {
			return fmt.Errorf(misfit+"field on qubit %d", n, i)
		}
	}
	for _, c := range o.Couplings {
		if c.V != 0 && (c.I < 0 || c.I >= n || c.J < 0 || c.J >= n) {
			return fmt.Errorf(misfit+"coupling on qubits (%d, %d)", n, c.I, c.J)
		}
	}
	for _, t := range o.Paulis {
		if len(t.Ops) > n || strings.Trim(t.Ops, "IXYZ") != "" {
			return fmt.Errorf(misfit+"Pauli string %q", n, t.Ops)
		}
	}
	return nil
}

// IsDiagonal reports whether the observable is computational-basis diagonal
// (evaluable from measurement counts alone). Pauli terms containing only I
// and Z still count as diagonal.
func (o *Observable) IsDiagonal() bool {
	for _, t := range o.Paulis {
		for i := 0; i < len(t.Ops); i++ {
			if t.Ops[i] == 'X' || t.Ops[i] == 'Y' {
				return false
			}
		}
	}
	return true
}

// FromCounts estimates <H> from a measurement histogram (the only option
// for hardware and cloud backends). It sums in sorted key order, so the
// same histogram always gives the same bits.
func (o *Observable) FromCounts(counts map[string]int) float64 {
	var total int
	var acc float64
	for _, key := range slices.Sorted(maps.Keys(counts)) {
		n := counts[key]
		acc += float64(n) * o.EnergyOfKey(key)
		total += n
	}
	if total == 0 {
		return 0
	}
	return acc / float64(total)
}

// EnergyOfKey evaluates a diagonal observable on one bitstring key (qubit 0
// is the rightmost character; Z|0> = +|0>). Panics on X/Y Pauli terms —
// callers must check IsDiagonal first.
func (o *Observable) EnergyOfKey(key string) float64 {
	return o.diagonalEnergy(func(q int) float64 {
		if key[len(key)-1-q] == '1' {
			return -1
		}
		return 1
	})
}

// EnergyOfIndex evaluates a diagonal observable on a basis-state index
// (bit q of idx is qubit q): one read of the compiled table, which the first
// call builds in full — meant for callers that visit every amplitude.
func (o *Observable) EnergyOfIndex(idx int) float64 {
	d := o.compiled()
	if d.table != nil {
		return d.table[idx&(len(d.table)-1)]
	}
	return d.walk(idx)
}

func (o *Observable) diagonalEnergy(z func(q int) float64) float64 {
	var e float64
	for i, f := range o.Fields {
		if f != 0 {
			e += f * z(i)
		}
	}
	for _, c := range o.Couplings {
		e += c.V * z(c.I) * z(c.J)
	}
	for _, t := range o.Paulis {
		v := t.Coeff
		for q := 0; q < len(t.Ops); q++ {
			switch t.Ops[q] {
			case 'Z':
				v *= z(q)
			case 'I':
			default:
				panic("core: non-diagonal Pauli term in diagonal evaluation")
			}
		}
		e += v
	}
	return e
}

// Capabilities describes a backend for Table 1.
type Capabilities struct {
	Backend     string   `json:"backend"`
	Subbackends []string `json:"subbackends"`
	CPU         bool     `json:"cpu"`
	GPU         bool     `json:"gpu"`
	NativeMPI   bool     `json:"native_mpi"`
	Gradients   bool     `json:"gradients,omitempty"` // analytic adjoint gradients available
	// GradientSubs lists the sub-backends the gradient capability covers
	// (empty means every sub-backend). Adjoint differentiation needs dense
	// amplitude access, so e.g. aer differentiates on statevector but not
	// on matrix_product_state or stabilizer.
	GradientSubs []string `json:"gradient_subs,omitempty"`
	// DeterministicSeeded declares that an execution with an explicit
	// RunOptions.Seed is a pure function of (spec, bindings, options): the
	// serving layer's exact-hit result cache is only sound on backends that
	// set it. Local simulators qualify; the cloud path does not (its
	// service-side RNG stream is shared across jobs, so counts depend on
	// global submission order, not the request seed).
	DeterministicSeeded bool   `json:"deterministic_seeded,omitempty"`
	Notes               string `json:"notes"`
}

// SupportsGradientSub reports whether the capability row covers analytic
// gradients on the given sub-backend selection ("" means the backend
// default, which gradient-capable backends always honor).
func (c Capabilities) SupportsGradientSub(sub string) bool {
	if !c.Gradients {
		return false
	}
	if len(c.GradientSubs) == 0 || sub == "" {
		return true
	}
	sub = strings.ToLower(strings.TrimSpace(sub))
	for _, s := range c.GradientSubs {
		if s == sub {
			return true
		}
	}
	return false
}

// Executor is the interface a backend QPM implementation provides: accept a
// standardized circuit description with runtime parameters, execute (via
// PRTE/MPI locally or REST remotely), and marshal results into the unified
// format.
type Executor interface {
	Name() string
	Capabilities() Capabilities
	Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error)
}

// BatchExecutor is the optional batch-native extension of Executor: execute
// one parametric spec under a list of parameter bindings and return ordered
// per-element results. Implementations rebind each element into a cached
// parse of the spec, so the QASM parse cost is paid once per ansatz. The
// QPM probes for this interface and falls back to per-element Execute calls
// when a backend does not provide it.
type BatchExecutor interface {
	Executor
	ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error)
}

// GradResult is the unified return of one gradient evaluation: the exact
// expectation value of the attached observable and its partial derivatives
// ordered by the spec's sorted parameter names.
type GradResult struct {
	Value float64   `json:"value"`
	Grad  []float64 `json:"grad"`
}

// GradientExecutor is the optional differentiation extension of Executor:
// evaluate the observable in opts.Observable and its analytic gradient for
// each binding of a parametric spec. Local state-vector backends implement
// it with the adjoint engine (O(gates) per binding, independent of the
// parameter count); backends without simulator-state access advertise
// Capabilities.Gradients=false and clients fall back to parameter-shift
// batches or derivative-free optimization.
type GradientExecutor interface {
	Executor
	ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error)
}
