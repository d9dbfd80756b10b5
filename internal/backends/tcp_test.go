package backends

import (
	"strings"
	"sync"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/core"
)

// TestFullStackOverTCP exercises the deployment mode of cmd/qfwd: the DEFw
// endpoint on TCP loopback with multiple concurrent application clients.
func TestFullStackOverTCP(t *testing.T) {
	s, err := core.Launch(core.Config{
		Machine:  cluster.Frontier(2),
		Backends: []string{"aer", "nwqsim"},
		UseTCP:   true,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Teardown()
	if s.Addr == "" || !strings.Contains(s.Addr, "127.0.0.1") {
		t.Fatalf("TCP address %q", s.Addr)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			backend := "aer"
			if i%2 == 1 {
				backend = "nwqsim"
			}
			f, err := s.Frontend(core.Properties{Backend: backend})
			if err != nil {
				errs[i] = err
				return
			}
			c := circuit.New(5)
			c.H(0)
			for q := 0; q+1 < 5; q++ {
				c.CX(q, q+1)
			}
			c.MeasureAll()
			res, err := f.Run(c, core.RunOptions{Shots: 100, Seed: int64(i + 1)})
			if err != nil {
				errs[i] = err
				return
			}
			if res.Counts["00000"]+res.Counts["11111"] != 100 {
				t.Errorf("client %d: bad GHZ counts %v", i, res.Counts)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAsyncBatchThroughStack mirrors the variational pattern: many
// asynchronous exec calls in flight on one connection, collected out of
// order, and none of them leaves a task behind.
func TestAsyncBatchThroughStack(t *testing.T) {
	s := launch(t)
	f, err := s.Frontend(core.Properties{Backend: "aer", Subbackend: "statevector"})
	if err != nil {
		t.Fatal(err)
	}
	var pendings []*core.Pending
	for i := 0; i < 12; i++ {
		c := circuit.New(4)
		c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).RZ(3, circuit.Bound(float64(i)*0.1)).MeasureAll()
		c.Name = "batch"
		p, err := f.RunAsync(c, core.RunOptions{Shots: 50, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	// Collect in reverse order to prove completion is order-independent.
	for i := len(pendings) - 1; i >= 0; i-- {
		res, err := pendings[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range res.Counts {
			total += n
		}
		if total != 50 {
			t.Fatalf("pending %d: %d shots", i, total)
		}
	}
	if list, err := f.List(); err != nil || len(list) != 0 {
		t.Fatalf("task table after the async runs: %v, %v; want empty", list, err)
	}
}
