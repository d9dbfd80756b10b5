package backends

import (
	"fmt"
	"runtime"

	"qfw/internal/core"
)

// tnqvm is the TN-QVM analog: a thin wrapper over a tensor-network library
// (ExaTN in the original) that selects the network topology as a
// sub-backend. As in the paper's Table 1, only exatn-mps is exercised:
// TTN is pending (blocked by the .xasm vs .qasm frontend mismatch) and PEPS
// is architecturally supported but planned.
type tnqvm struct {
	env   *core.Env
	cache *core.ParseCache
}

func newTNQVM(env *core.Env) (core.Executor, error) {
	return &tnqvm{env: env, cache: core.NewParseCache()}, nil
}

func (b *tnqvm) Name() string { return "tnqvm" }

func (b *tnqvm) Capabilities() core.Capabilities {
	return core.Capabilities{
		Backend:             "tnqvm",
		Subbackends:         []string{"exatn-mps", "ttn", "peps"},
		CPU:                 true,
		GPU:                 true,
		NativeMPI:           true,
		DeterministicSeeded: true,
		Notes:               "Tensor-network simulator; wrapper selects topology. Tested with exatn-mps. TTN currently blocked by .xasm vs .qasm; PEPS is architecturally supported.",
	}
}

func (b *tnqvm) Execute(spec core.CircuitSpec, opts core.RunOptions) (core.ExecResult, error) {
	if err := b.checkSub(opts); err != nil {
		return core.ExecResult{}, err
	}
	if _, err := parsed(b.cache, spec, opts); err != nil {
		return core.ExecResult{}, err
	}
	res, err := runMPSSingle(b.cache, spec, opts, tnqvmDefaultBond, runtime.GOMAXPROCS(0))
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("tnqvm/exatn-mps: %w", err)
	}
	return res, nil
}

// ExecuteBatch implements core.BatchExecutor: the spec compiles once per
// batch into the routed MPS schedule (parse, transpile, fusion plan, swap
// route — all keyed by spec hash in the ParseCache) and every element
// rebinds into it.
func (b *tnqvm) ExecuteBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	if err := b.checkSub(opts); err != nil {
		return nil, err
	}
	if _, err := parsed(b.cache, spec, opts); err != nil {
		return nil, err
	}
	res, err := runMPSBatch(b.cache, spec, bindings, opts, tnqvmDefaultBond)
	if err != nil {
		return nil, fmt.Errorf("tnqvm/exatn-mps: %w", err)
	}
	return res, nil
}

// tnqvmDefaultBond is ExaTN-MPS's default bond cap: slightly more
// conservative than Aer's, reflecting its general-network heritage.
const tnqvmDefaultBond = 48

func (b *tnqvm) checkSub(opts core.RunOptions) error {
	switch normalizeSub(opts.Subbackend, "exatn-mps") {
	case "exatn-mps":
		return nil
	case "ttn":
		return fmt.Errorf("tnqvm: TTN %w (blocked by .xasm vs .qasm)", core.ErrPending)
	case "peps":
		return fmt.Errorf("tnqvm: PEPS %w", core.ErrPlanned)
	default:
		return fmt.Errorf("tnqvm: unknown sub-backend %q", opts.Subbackend)
	}
}
