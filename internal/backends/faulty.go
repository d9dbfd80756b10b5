package backends

import (
	"qfw/internal/core"
	"qfw/internal/faults"
)

// The "faulty" backend is a registrable test target: the aer executor
// wrapped in the QFW_FAULTS injector under its own name, so a session can
// expose one deliberately unreliable backend next to healthy ones without
// wrapping everything. It only exists when the environment schedule is
// armed — an unset QFW_FAULTS keeps Table 1 and session listings clean.
func init() {
	if faults.FromEnv() != nil {
		core.RegisterBackend("faulty", newFaulty)
	}
}

func newFaulty(env *core.Env) (core.Executor, error) {
	sched := faults.FromEnv()
	if sched == nil {
		// Registered at init but unset by launch time: arm a benign
		// schedule-free injector equivalent (rate 0 marks nothing).
		sched = &faults.Schedule{Rate: 0, Nth: 0}
	}
	inner, err := aer.open(env)
	if err != nil {
		return nil, err
	}
	return core.NewFaultyExecutor(inner, faults.NewInjector(*sched)).WithName("faulty"), nil
}
