package serve

import (
	"encoding/json"
	"testing"
)

// FuzzServeHandle throws arbitrary (method, payload) pairs at the serving
// layer's RPC surface over a deterministic fake executor, twice each so a
// cacheable exec also takes the hit path. Handle must never panic and must
// return an error or valid JSON, and because exec is synchronous, nothing
// may stay queued or outstanding once it returns.
func FuzzServeHandle(f *testing.F) {
	const spec = `"spec":{"name":"c","nqubits":2,"qasm":"OPENQASM 2.0;","params":["t"]}`
	for _, seed := range []struct{ method, payload string }{
		{"exec", `{"tenant":"a",` + spec + `,"opts":{"shots":8,"seed":3}}`},
		{"exec", `{"tenant":"a",` + spec + `,"bindings":[{"t":0.5},{"t":1.5},{}],"opts":{"shots":4,"seed":7}}`},
		{"exec", `{` + spec + `,"bindings":[{"t":0.1},{"t":0.2}],"opts":{"observable":{"fields":[1,-1],"couplings":[{"i":0,"j":1,"v":0.5}]}}}`},
		{"exec", `{"tenant":"b",` + spec + `,"opts":{"shots":2}}`},
		{"exec", `{"spec":{"qasm":""}}`},
		{"stats", ``},
		{"stats", `null`},
		{"set_tenant", `{"name":"a","weight":3,"quota":2}`},
		{"set_tenant", `{"weight":-1}`},
		{"exec", `{`},
		{"exec", `[]`},
		{"exec", `{"tenant":5}`},
		{"nope", `{}`},
	} {
		f.Add(seed.method, []byte(seed.payload))
	}
	f.Fuzz(func(t *testing.T, method string, payload []byte) {
		s := newServe(t, &fakeExec{deterministic: true}, 2, Config{CacheCap: 16, QueueCap: 8})
		for call := 1; call <= 2; call++ {
			out, err := s.Handle(method, payload)
			if err == nil && !json.Valid(out) {
				t.Fatalf("%s %q call %d: reply is not JSON: %q", method, payload, call, out)
			}
			st := s.Stats()
			if st.QueueDepth != 0 {
				t.Fatalf("%s %q call %d: queue depth %d after the call returned", method, payload, call, st.QueueDepth)
			}
			for name, ten := range st.Tenants {
				if ten.Outstanding != 0 {
					t.Fatalf("%s %q call %d: tenant %q has %d outstanding after the call returned", method, payload, call, name, ten.Outstanding)
				}
			}
		}
	})
}
