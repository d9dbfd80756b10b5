package serve

import (
	"fmt"

	"qfw/internal/core"
	"qfw/internal/defw"
)

// Client is the tenant-side handle to a backend's serving layer: a thin
// typed wrapper over the DEFw "serve.<backend>" service. Every request
// carries the client's tenant token, so many Clients (or many sessions of
// one Client) can share a single daemon connection while the scheduler
// keeps their traffic fairly apportioned.
type Client struct {
	rpc     *defw.Client
	service string
	tenant  string
}

// NewClient wraps a DEFw connection as tenant's handle to backend's
// serving layer. An empty tenant maps to the shared "default" queue.
func NewClient(rpc *defw.Client, backend, tenant string) *Client {
	return &Client{rpc: rpc, service: ServiceName(backend), tenant: tenant}
}

// Tenant returns the tenant token requests are tagged with.
func (c *Client) Tenant() string { return c.tenant }

// Run executes a single circuit through the serving layer and returns its
// result (cache hits return without touching the execution queue).
func (c *Client) Run(spec core.CircuitSpec, opts core.RunOptions) (*core.Result, ExecInfo, error) {
	results, errs, info, err := c.exec(spec, nil, opts)
	if err != nil {
		return nil, info, err
	}
	if len(errs) > 0 && errs[0] != "" {
		return nil, info, fmt.Errorf("%s", errs[0])
	}
	return results[0], info, nil
}

// RunBatch executes one spec under many bindings through the serving
// layer, preserving the QPM batch seed schedule. Per-element failures come
// back in the parallel errs slice ("" for success).
func (c *Client) RunBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, []string, ExecInfo, error) {
	return c.exec(spec, bindings, opts)
}

func (c *Client) exec(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, []string, ExecInfo, error) {
	req := ExecReq{Tenant: c.tenant, Spec: spec, Bindings: bindings, Opts: opts}
	var resp ExecResp
	if err := defw.CallJSON(c.rpc, c.service, "exec", req, &resp); err != nil {
		return nil, nil, ExecInfo{}, err
	}
	// The server answers a submission without bindings as one element.
	if n := max(len(bindings), 1); len(resp.Results) != n || len(resp.Errs) != 0 && len(resp.Errs) != n {
		return nil, nil, ExecInfo{}, fmt.Errorf("serve: exec returned %d results and %d errors for %d elements", len(resp.Results), len(resp.Errs), n)
	}
	if resp.Errs == nil {
		resp.Errs = make([]string, len(resp.Results))
	}
	return resp.Results, resp.Errs, resp.Info, nil
}

// Stats fetches the serving layer's counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := defw.CallJSON(c.rpc, c.service, "stats", nil, &st)
	return st, err
}

// SetTenant configures a tenant's fair-share weight and quota on the
// server (an admin operation; any connection may issue it).
func (c *Client) SetTenant(name string, weight, quota int) error {
	return defw.CallJSON(c.rpc, c.service, "set_tenant", tenantReq{Name: name, Weight: weight, Quota: quota}, nil)
}
