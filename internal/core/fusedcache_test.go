package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"qfw/internal/circuit"
)

func TestParseCacheGetFusedOncePerSpec(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.RZZ(0, 1, circuit.Sym("g", 1))
	c.RZZ(1, 2, circuit.Sym("g", 1))
	c.MeasureAll()
	spec, err := SpecFromParametric(c)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewParseCache()
	var wg sync.WaitGroup
	plans := make([]*circuit.FusionPlan, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, plan, err := pc.GetFused(spec)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = plan
		}(i)
	}
	wg.Wait()
	if pc.Parses() != 1 {
		t.Fatalf("parses = %d, want 1", pc.Parses())
	}
	if pc.Fusions() != 1 {
		t.Fatalf("fusions = %d, want 1: a batch must fuse once per ansatz", pc.Fusions())
	}
	for i := 1; i < 16; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent GetFused returned different plan instances")
		}
	}
	// The cached plan is built against the measurement-stripped circuit.
	base, plan, err := pc.GetFused(spec)
	if err != nil {
		t.Fatal(err)
	}
	bound := base.Bind(map[string]float64{"g": 0.4})
	prog := plan.Compile(bound.StripMeasurements())
	if prog.NQubits != 3 || len(prog.Ops) == 0 {
		t.Fatalf("unexpected compiled program: %+v", prog)
	}
}

func TestParseCacheGetPlainStillWorks(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1)
	spec, err := SpecFromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewParseCache()
	if _, err := pc.Get(spec); err != nil {
		t.Fatal(err)
	}
	// Mixing Get and GetFused shares one parse.
	if _, _, err := pc.GetFused(spec); err != nil {
		t.Fatal(err)
	}
	if pc.Parses() != 1 {
		t.Fatalf("parses = %d, want 1 across Get and GetFused", pc.Parses())
	}
}

func TestParseCacheMemoOncePerSpecAndKey(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.RZZ(0, 1, circuit.Sym("g", 1))
	spec, err := SpecFromParametric(c)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewParseCache()
	var builds int32
	var wg sync.WaitGroup
	vals := make([]any, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := pc.Memo(spec, "schedule", func(cc *circuit.Circuit) (any, error) {
				atomic.AddInt32(&builds, 1)
				return cc.NQubits, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if got := atomic.LoadInt32(&builds); got != 1 {
		t.Fatalf("builds = %d, want exactly 1 under concurrent Memo calls", got)
	}
	if pc.Memos() != 1 {
		t.Fatalf("Memos() = %d, want 1", pc.Memos())
	}
	for i, v := range vals {
		if v != 2 {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	// A different key builds independently; the same key never rebuilds.
	if _, err := pc.Memo(spec, "other", func(cc *circuit.Circuit) (any, error) { return "x", nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Memo(spec, "schedule", func(cc *circuit.Circuit) (any, error) {
		t.Fatal("same-key memo must not rebuild")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if pc.Memos() != 2 {
		t.Fatalf("Memos() = %d, want 2 after a second key", pc.Memos())
	}
	if pc.Parses() != 1 {
		t.Fatalf("parses = %d: memoized artifacts must share the single parse", pc.Parses())
	}
}

func TestParseCacheMemoPropagatesBuildError(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	spec, err := SpecFromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewParseCache()
	wantErr := errTest
	if _, err := pc.Memo(spec, "k", func(cc *circuit.Circuit) (any, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want the build error", err)
	}
	// The failed build is cached too (single-flight): no rebuild.
	if _, err := pc.Memo(spec, "k", func(cc *circuit.Circuit) (any, error) {
		t.Fatal("failed memo must not rebuild")
		return nil, nil
	}); err != wantErr {
		t.Fatalf("second err = %v", err)
	}
}

var errTest = errors.New("boom")

// TestParseCacheBound pins the cache's size bound: every executor now
// parses single runs through its cache too, so a stream of distinct specs
// (one fresh QUBO per solve) must not keep more than 32 of them alive.
func TestParseCacheBound(t *testing.T) {
	pc := NewParseCache()
	for i := 0; i < 33; i++ {
		c := circuit.New(2)
		c.RX(0, circuit.Bound(float64(i)))
		spec, err := SpecFromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pc.Get(spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := pc.Len(); got > 32 {
		t.Fatalf("cache holds %d specs after 33 inserts, want <= 32", got)
	}
}
