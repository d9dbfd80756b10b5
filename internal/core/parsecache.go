package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qfw/internal/circuit"
	"qfw/internal/cost"
)

// maxCachedSpecs bounds a ParseCache, which Launch makes one of per
// session. A workload keeps a handful of distinct specs alive (at most 6
// in the benchmark's route mix), so the bound is generous and the eviction
// policy (drop everything) trivially correct. Single runs' plans are stored
// too, so a stream of fresh specs (one QUBO per variational solve) holds at
// most this many, each with its QASM as the key.
const maxCachedSpecs = 32

// ParseCache is a spec store: it deduplicates QASM parsing by spec content
// (NQubits, QASM) and keeps each spec's plans beside its parse. Launch makes
// one per session, shared by every QPM, the router and every executor it
// builds (Env.Specs); a QPM, router or fault injector built outside a
// session owns a private one. The zero value is an empty store. Concurrent
// Get calls for the same spec are single-flighted: exactly one parse runs,
// everyone shares the result — the property the batch pipeline's "parse
// once per ansatz" guarantee rests on. Callers must treat the returned
// circuit as immutable (Bind copies, so rebinding batch elements is safe).
type ParseCache struct {
	mu      sync.Mutex
	entries map[specKey]*parseEntry
	parses  atomic.Int64
	fusions atomic.Int64
	grads   atomic.Int64
	memos   atomic.Int64
}

// specKey is a spec's content: what its parse depends on. Keying by content
// lets every layer look a spec up without hashing its QASM first.
type specKey struct {
	nqubits int
	qasm    string
}

type parseEntry struct {
	once sync.Once
	c    *circuit.Circuit
	err  error

	fuseOnce sync.Once
	plan     *circuit.FusionPlan

	gradOnce sync.Once
	gplan    *circuit.GradPlan

	memoMu sync.Mutex
	memos  map[string]*memoEntry
}

// memoEntry is one derived artifact slot of a cached spec; the build is
// single-flighted like the parse itself.
type memoEntry struct {
	once sync.Once
	v    any
	err  error
}

// NewParseCache returns an empty store.
func NewParseCache() *ParseCache { return new(ParseCache) }

// entry returns the (possibly fresh) cache slot of the spec with its parse
// completed — the shared core of Get and GetFused.
func (pc *ParseCache) entry(spec CircuitSpec) *parseEntry {
	key := specKey{spec.NQubits, spec.QASM}
	pc.mu.Lock()
	e, ok := pc.entries[key]
	if !ok {
		if pc.entries == nil || len(pc.entries) >= maxCachedSpecs {
			pc.entries = make(map[specKey]*parseEntry)
		}
		e = &parseEntry{}
		pc.entries[key] = e
	}
	pc.mu.Unlock()
	e.once.Do(func() {
		pc.parses.Add(1)
		e.c, e.err = spec.Circuit()
	})
	return e
}

// Get returns the parsed circuit of the spec, parsing at most once per
// distinct spec content.
func (pc *ParseCache) Get(spec CircuitSpec) (*circuit.Circuit, error) {
	e := pc.entry(spec)
	return e.c, e.err
}

// GetFused returns the parsed circuit plus the gate-fusion plan of its
// measurement-stripped body. The plan depends only on circuit structure, so
// one plan serves every binding of a parametric ansatz: a whole batch fuses
// once. The plan is built against spec.Circuit().StripMeasurements() — the
// exact circuit the state-vector sampling path executes.
func (pc *ParseCache) GetFused(spec CircuitSpec) (*circuit.Circuit, *circuit.FusionPlan, error) {
	e := pc.entry(spec)
	if e.err != nil {
		return nil, nil, e.err
	}
	e.fuseOnce.Do(func() {
		pc.fusions.Add(1)
		e.plan = circuit.PlanFusion(e.c.StripMeasurements())
	})
	return e.c, e.plan, nil
}

// GetStaged returns the parsed circuit, its fusion plan, and the
// cache-blocked tile schedule of the measurement-stripped body at the given
// tile granularity — the staged engine's analog of GetFused, so a batch of
// bindings partitions its stages once per ansatz. A nil schedule (with nil
// error) means the structure cannot be tiled at this granularity (an op
// wider than a tile); callers run the per-op fused path instead. The
// negative result is memoized too: an untileable ansatz is not re-planned
// per batch.
func (pc *ParseCache) GetStaged(spec CircuitSpec, tileBits int) (*circuit.Circuit, *circuit.FusionPlan, *circuit.DistSchedule, error) {
	c, plan, err := pc.GetFused(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	v, err := pc.Memo(spec, fmt.Sprintf("tile-stages-%d", tileBits), func(c *circuit.Circuit) (any, error) {
		sched, err := circuit.PlanTileStages(plan, c.StripMeasurements(), tileBits)
		if err != nil {
			return (*circuit.DistSchedule)(nil), nil
		}
		return sched, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return c, plan, v.(*circuit.DistSchedule), nil
}

// GetGrad returns the parsed circuit plus the gradient-aware fusion plan of
// its measurement-stripped body: parametric gates stay differentiable
// boundaries, everything between them fuses. Like the ordinary plan it
// depends only on circuit structure, so one gradient plan serves every
// binding — a whole gradient batch plans once per ansatz.
func (pc *ParseCache) GetGrad(spec CircuitSpec) (*circuit.Circuit, *circuit.GradPlan, error) {
	e := pc.entry(spec)
	if e.err != nil {
		return nil, nil, e.err
	}
	e.gradOnce.Do(func() {
		pc.grads.Add(1)
		e.gplan = circuit.PlanFusionGrad(e.c)
	})
	return e.c, e.gplan, nil
}

// Memo returns (building at most once per distinct spec content) a derived
// artifact of the parsed circuit, keyed by an engine-chosen name. It is the
// extension point for backend-specific compiled forms that core cannot know
// about — the MPS engine caches its routed execution schedule here, so a
// batch of K bindings shares one compiled schedule exactly like the fusion
// plan. Build results must be treated as immutable by callers.
func (pc *ParseCache) Memo(spec CircuitSpec, key string, build func(c *circuit.Circuit) (any, error)) (any, error) {
	e := pc.entry(spec)
	if e.err != nil {
		return nil, e.err
	}
	e.memoMu.Lock()
	if e.memos == nil {
		e.memos = make(map[string]*memoEntry)
	}
	m, ok := e.memos[key]
	if !ok {
		m = &memoEntry{}
		e.memos[key] = m
	}
	e.memoMu.Unlock()
	m.once.Do(func() {
		pc.memos.Add(1)
		m.v, m.err = build(e.c)
	})
	return m.v, m.err
}

// GetFeatures returns the cost-model features of the spec's
// measurement-stripped body, extracted from the cached fusion plan and
// memoized per spec — a batched submission computes its routing features
// exactly once, like the parse and the plan.
func (pc *ParseCache) GetFeatures(spec CircuitSpec) (*cost.Features, error) {
	_, plan, err := pc.GetFused(spec)
	if err != nil {
		return nil, err
	}
	v, err := pc.Memo(spec, "cost-features", func(c *circuit.Circuit) (any, error) {
		return cost.Extract(c.StripMeasurements(), plan), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*cost.Features), nil
}

// Memos returns how many memoized artifacts the cache has built — asserted
// on by the compile-once-per-batch MPS tests.
func (pc *ParseCache) Memos() int64 { return pc.memos.Load() }

// Parses returns how many real QASM parses the cache has performed — the
// counter the batch acceptance tests assert on.
func (pc *ParseCache) Parses() int64 { return pc.parses.Load() }

// Fusions returns how many fusion plans the cache has built — the fused
// analog of Parses, asserted on by the fuse-once-per-batch tests.
func (pc *ParseCache) Fusions() int64 { return pc.fusions.Load() }

// Grads returns how many gradient plans the cache has built — asserted on
// by the plan-once-per-batch gradient tests.
func (pc *ParseCache) Grads() int64 { return pc.grads.Load() }

// Len returns the number of cached specs.
func (pc *ParseCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// executeBatch runs bindings of spec on exec: whole when exec implements
// BatchExecutor, otherwise through the bind-and-run fallback. The fallback
// parses the spec once through the store, then binds each binding into that
// parse, serializes it and runs it through Execute seeded
// opts.ForElement(i). The first element that fails ends the fallback, and
// its error carries the element's index.
func (pc *ParseCache) executeBatch(exec Executor, spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	if be, ok := exec.(BatchExecutor); ok {
		return be.ExecuteBatch(spec, bindings, opts)
	}
	base, err := pc.Get(spec)
	if err != nil {
		return nil, err
	}
	out := make([]ExecResult, len(bindings))
	for i, b := range bindings {
		elem, err := SpecFromCircuit(base.Bind(b))
		if err == nil {
			out[i], err = exec.Execute(elem, opts.ForElement(i))
		}
		if err != nil {
			return nil, fmt.Errorf("batch element %d: %w", i, err)
		}
	}
	return out, nil
}
