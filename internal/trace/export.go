package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"qfw/internal/defw"
)

// ---- Prometheus text exposition ---------------------------------------

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples (gauges
// additionally expose their exact peak as <base>_peak), histograms as
// cumulative _bucket/_sum/_count families plus derived _p50/_p90/_p99
// gauges so scrapers get quantiles without server-side aggregation.
// Output is sorted by metric name, so scrapes are deterministic.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	typed := map[string]bool{}
	emitType := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, kind)
		}
	}

	m.mu.RLock()
	counters := make(map[string]*Counter, len(m.counters))
	for n, c := range m.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for n, g := range m.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(m.histograms))
	for n, h := range m.histograms {
		hists[n] = h
	}
	m.mu.RUnlock()

	for _, name := range sortedKeys(counters) {
		base, _ := splitLabeled(name)
		emitType(base, "counter")
		fmt.Fprintf(bw, "%s %d\n", name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		base, labels := splitLabeled(name)
		emitType(base, "gauge")
		fmt.Fprintf(bw, "%s %s\n", name, fmtFloat(g.Last()))
		peak := base + "_peak"
		emitType(peak, "gauge")
		fmt.Fprintf(bw, "%s %s\n", withLabels(peak, labels), fmtFloat(g.Max()))
	}
	for _, name := range sortedKeys(hists) {
		snap := hists[name].snapshot()
		base, labels := splitLabeled(name)
		emitType(base, "histogram")
		var cum int64
		last := len(snap.counts) - 1 // trim trailing empty buckets, keep +Inf
		for last > 0 && snap.counts[last] == 0 {
			last--
		}
		for i := 0; i <= last && i < len(histBounds); i++ {
			cum += snap.counts[i]
			le := strconv.FormatFloat(histBounds[i], 'g', -1, 64)
			fmt.Fprintf(bw, "%s %d\n", withLabels(base+"_bucket", joinLabels(labels, `le="`+le+`"`)), cum)
		}
		fmt.Fprintf(bw, "%s %d\n", withLabels(base+"_bucket", joinLabels(labels, `le="+Inf"`)), snap.count)
		fmt.Fprintf(bw, "%s %s\n", withLabels(base+"_sum", labels), fmtFloat(snap.sum))
		fmt.Fprintf(bw, "%s %d\n", withLabels(base+"_count", labels), snap.count)
		h := hists[name]
		for _, q := range []struct {
			suffix string
			p      float64
		}{{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}} {
			emitType(base+q.suffix, "gauge")
			fmt.Fprintf(bw, "%s %s\n", withLabels(base+q.suffix, labels), fmtFloat(h.Quantile(q.p)))
		}
	}
	return bw.err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func withLabels(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// ---- Chrome trace-event JSON ------------------------------------------

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events; "M" metadata naming the rows). Timestamps are microseconds from
// the recorder epoch, so the dump loads directly in chrome://tracing and
// Perfetto with workers as threads.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace dumps the retained spans as Chrome trace-event JSON.
// Each worker becomes one named thread row, so nested spans (a serve
// dispatch containing its executor attempts) render as stacked bars in
// Perfetto exactly like the paper's Fig. 5 timeline.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	workers := map[string]int{}
	var names []string
	for _, e := range events {
		if _, ok := workers[e.Worker]; !ok {
			workers[e.Worker] = 0
			names = append(names, e.Worker)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		workers[n] = i + 1
	}
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)+len(names)), DisplayTimeUnit: "ms"}
	for _, n := range names {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: workers[n],
			Args: map[string]string{"name": n},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  "qfw",
			Ph:   "X",
			TS:   float64(e.Start.Sub(r.t0)) / 1e3,
			Dur:  float64(e.Duration()) / 1e3,
			PID:  1,
			TID:  workers[e.Worker],
			Args: e.Attrs,
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ---- Telemetry RPC service --------------------------------------------

// Service exposes a recorder over the DEFw RPC surface (methods: metrics,
// trace, stats) — the in-band counterpart of the qfwd HTTP endpoint, so
// clients on the RPC connection can scrape without a second port.
type Service struct {
	Rec *Recorder
}

// metricsResp wraps the Prometheus text exposition for the "metrics" RPC
// (payloads must be JSON).
type metricsResp struct {
	Text string `json:"text"`
}

// Handle implements defw.Handler over the shared JSON codec: "metrics"
// returns the Prometheus text exposition, "trace" the Chrome trace-event
// JSON, and "stats" the span-ring accounting.
func (s *Service) Handle(method string, payload []byte) ([]byte, error) {
	const who = "telemetry"
	switch method {
	case "metrics":
		return defw.HandleJSON(who, func(struct{}) (metricsResp, error) {
			var buf bytes.Buffer
			err := s.Rec.Metrics().WritePrometheus(&buf)
			return metricsResp{Text: buf.String()}, err
		})(payload)
	case "trace":
		return defw.HandleJSON(who, func(struct{}) (json.RawMessage, error) {
			var buf bytes.Buffer
			err := s.Rec.WriteChromeTrace(&buf)
			return buf.Bytes(), err
		})(payload)
	case "stats":
		return defw.HandleJSON(who, func(struct{}) (RecorderStats, error) { return s.Rec.Stats(), nil })(payload)
	default:
		return nil, fmt.Errorf("%s: unknown method %q", who, method)
	}
}

// ServiceName is the DEFw service the telemetry handler registers under.
const ServiceName = "telemetry"
