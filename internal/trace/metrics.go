package trace

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the typed metrics registry of a Recorder: monotonic counters,
// gauges maintained as bounded time-ordered series, and log-bucketed latency
// histograms with quantile extraction. Instruments are created on first use
// and live for the registry's lifetime, so hot paths resolve a handle once
// and update it lock-free (counters) or under a per-instrument mutex.
//
// Names follow the Prometheus convention and may carry inline labels built
// with LabeledName ("qfw_serve_cache_hits_total{backend=\"aer\"}"); the
// exposition writer groups same-base instruments under one # TYPE header.
type Metrics struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// LabeledName renders a Prometheus-style metric name with inline labels:
// LabeledName("qfw_qpm_tasks_total", "backend", "aer") yields
// `qfw_qpm_tasks_total{backend="aer"}`. Pairs are emitted in argument order.
func LabeledName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabeled splits a LabeledName back into base and label body ("" when
// unlabeled) so derived metrics (_peak, _bucket, quantiles) can be named.
func splitLabeled(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// Counter returns (creating on first use) the named monotonic counter.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.RLock()
	c, ok := m.counters[name]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok = m.counters[name]; !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge series.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.RLock()
	g, ok := m.gauges[name]
	m.mu.RUnlock()
	if ok {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok = m.gauges[name]; !ok {
		g = newGauge(defaultGaugeSamples)
		m.gauges[name] = g
	}
	return g
}

// LookupGauge returns the named gauge or nil, without creating it.
func (m *Metrics) LookupGauge(name string) *Gauge {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.gauges[name]
}

// Histogram returns (creating on first use) the named latency histogram.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.RLock()
	h, ok := m.histograms[name]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok = m.histograms[name]; !ok {
		h = newHistogram()
		m.histograms[name] = h
	}
	return h
}

// sortedKeys returns the instrument names in sorted order — the
// exposition writer depends on a deterministic walk.
func sortedKeys[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- Counter ----------------------------------------------------------

// Counter is a monotonic event count. Updates are atomic, so hot paths
// increment without locking.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// ---- Gauge ------------------------------------------------------------

// defaultGaugeSamples bounds the retained samples of one gauge series.
const defaultGaugeSamples = 512

// Sample is one retained gauge observation.
type Sample struct {
	T time.Time
	V float64
}

// Gauge is an instantaneous measurement maintained as a bounded
// time-ordered series. The running aggregates (count, last, min, max, sum)
// are exact over every observation; the retained series is downsampled by
// stride decimation — when the buffer fills, every second sample is dropped
// and the recording stride doubles, so memory stays flat while the series
// keeps spanning the full session.
type Gauge struct {
	mu      sync.Mutex
	cap     int
	stride  int // record every stride-th observation
	skip    int // observations until the next retained sample
	samples []Sample

	count     int64
	last, sum float64
	min, max  float64
	seen      bool
}

func newGauge(capacity int) *Gauge {
	if capacity < 4 {
		capacity = 4
	}
	return &Gauge{cap: capacity, stride: 1}
}

// Record observes one value at the current time.
func (g *Gauge) Record(v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
	g.last = v
	g.sum += v
	if !g.seen || v < g.min {
		g.min = v
	}
	if !g.seen || v > g.max {
		g.max = v
	}
	g.seen = true
	if g.skip > 0 {
		g.skip--
		return
	}
	g.samples = append(g.samples, Sample{T: time.Now(), V: v})
	g.skip = g.stride - 1
	if len(g.samples) >= g.cap {
		// Decimate: keep every second sample and double the stride. The
		// series stays time-ordered and spans the whole session at half
		// the resolution.
		half := g.samples[:0]
		for i := 0; i < len(g.samples); i += 2 {
			half = append(half, g.samples[i])
		}
		g.samples = half
		g.stride *= 2
	}
}

// Values returns the retained sample values in time order.
func (g *Gauge) Values() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]float64, len(g.samples))
	for i, s := range g.samples {
		out[i] = s.V
	}
	return out
}

// Series returns a copy of the retained (time, value) samples in time order.
func (g *Gauge) Series() []Sample {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Sample(nil), g.samples...)
}

// SampleCount returns the number of retained samples (bounded by the
// series capacity regardless of how many observations were recorded).
func (g *Gauge) SampleCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.samples)
}

// Count returns the exact number of observations.
func (g *Gauge) Count() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count
}

// Last returns the most recent observation (0 when unseen).
func (g *Gauge) Last() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// Max returns the exact peak observation (0 when unseen) — exact even
// after the retained series has been downsampled.
func (g *Gauge) Max() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.seen {
		return 0
	}
	return g.max
}

// Min returns the exact minimum observation (0 when unseen).
func (g *Gauge) Min() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.seen {
		return 0
	}
	return g.min
}

// Mean returns the exact mean over every observation (0 when unseen).
func (g *Gauge) Mean() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.count == 0 {
		return 0
	}
	return g.sum / float64(g.count)
}

// ---- Histogram --------------------------------------------------------

// Histogram buckets are geometric with ratio sqrt(2) from 1µs to ~1min
// (values in milliseconds), so any quantile estimate is within a factor
// sqrt(2) of the exact order statistic across nine decades of latency.
var histBounds = func() []float64 {
	const (
		base  = 1e-3 // 1µs in ms
		limit = 6e4  // 1min in ms
	)
	ratio := math.Sqrt2
	var bounds []float64
	for b := base; b <= limit; b *= ratio {
		bounds = append(bounds, b)
	}
	return bounds
}()

// HistogramBounds returns the shared bucket upper bounds (milliseconds);
// bucket i covers (bounds[i-1], bounds[i]], with an implicit overflow
// bucket past the last bound. Tests use it to build reference histograms.
func HistogramBounds() []float64 {
	return append([]float64(nil), histBounds...)
}

// bucketOf maps a value to its bucket index (len(histBounds) = overflow).
func bucketOf(v float64) int {
	i := sort.SearchFloat64s(histBounds, v)
	return i // SearchFloat64s returns the first i with bounds[i] >= v
}

// Histogram is a log-bucketed latency distribution (milliseconds) with
// exact count/sum/max and p50/p90/p99 extraction. Observations are O(log
// buckets); memory is a fixed bucket array.
type Histogram struct {
	mu     sync.Mutex
	counts []int64
	count  int64
	sum    float64
	max    float64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(histBounds)+1)}
}

// Observe records one latency in milliseconds (negative values clamp to 0).
func (h *Histogram) Observe(ms float64) {
	if ms < 0 {
		ms = 0
	}
	idx := bucketOf(ms)
	h.mu.Lock()
	h.counts[idx]++
	h.count++
	h.sum += ms
	if ms > h.max {
		h.max = ms
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations (ms).
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest observation (ms).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the p-quantile (p in (0,1]) as the upper bound of the
// bucket holding the nearest-rank order statistic — an estimate within a
// factor sqrt(2) above the exact value. The overflow bucket reports the
// exact maximum. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(histBounds) {
				return histBounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// histSnapshot is a consistent copy for the exposition writer.
type histSnapshot struct {
	counts []int64
	count  int64
	sum    float64
	max    float64
}

func (h *Histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histSnapshot{
		counts: append([]int64(nil), h.counts...),
		count:  h.count,
		sum:    h.sum,
		max:    h.max,
	}
}
