// Package trace is the production observability core QFw attaches to every
// backend (Sec. 4.1 of the paper): a bounded ring-buffered span recorder
// (queryable as an event list, renderable as the Fig. 5 timeline, dumpable
// as Chrome trace-event JSON) plus a typed metrics registry — counters,
// gauge time series, and latency histograms — exported over the telemetry
// RPC and the qfwd Prometheus endpoint.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one recorded span.
type Event struct {
	Name   string
	Worker string
	Start  time.Time
	End    time.Time
	Attrs  map[string]string
}

// Duration returns the span length.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// DefaultCapacity is the span ring size of NewRecorder — large enough for
// the bench timelines, small enough that a long-lived daemon's recorder
// stays a few MB no matter how much traffic it serves.
const DefaultCapacity = 16384

// Recorder collects spans thread-safely into a bounded ring: once the
// capacity is reached, each new span overwrites the oldest and the drop
// counter advances, so memory stays flat under sustained traffic. Gauges
// and other instantaneous measurements live in the attached Metrics
// registry, not the event ring.
type Recorder struct {
	mu       sync.Mutex
	cap      int
	buf      []Event // ring storage; grows to cap, then wraps
	next     int     // write cursor (index of the oldest event once full)
	recorded int64
	dropped  int64
	sorted   []Event // cached sorted view; valid when !dirty
	dirty    bool
	t0       time.Time
	met      *Metrics
}

// NewRecorder returns a recorder with the default ring capacity and its
// epoch set to now.
func NewRecorder() *Recorder { return NewRecorderCap(DefaultCapacity) }

// NewRecorderCap returns a recorder retaining at most capacity spans
// (<= 0 selects DefaultCapacity).
func NewRecorderCap(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity, t0: time.Now(), met: NewMetrics()}
}

// Epoch returns the recorder's zero time.
func (r *Recorder) Epoch() time.Time { return r.t0 }

// Metrics returns the recorder's metrics registry. Every layer holding the
// recorder (QPM, serving layer, daemon) shares one registry, so the export
// endpoints see the whole stack.
func (r *Recorder) Metrics() *Metrics { return r.met }

// Record appends a completed span, overwriting the oldest one when the
// ring is full.
func (r *Recorder) Record(name, worker string, start, end time.Time, attrs map[string]string) {
	e := Event{Name: name, Worker: worker, Start: start, End: end, Attrs: attrs}
	r.mu.Lock()
	r.recorded++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.cap
		r.dropped++
	}
	r.dirty = true
	r.mu.Unlock()
}

// Span starts a span and returns a closure that completes it.
func (r *Recorder) Span(name, worker string) func() {
	start := time.Now()
	return func() {
		r.Record(name, worker, start, time.Now(), nil)
	}
}

// Gauge records an instantaneous measurement (queue depth, utilization).
// Gauges live in the metrics registry as bounded time series — not in the
// span ring — so high-rate telemetry neither evicts execution spans nor
// pollutes the timeline. The worker argument is accepted for call-site
// symmetry with Span but is not part of the series identity.
func (r *Recorder) Gauge(name, worker string, value float64) {
	r.met.Gauge(name).Record(value)
}

// GaugeSeries returns the retained values of a gauge in time order (the
// series is downsampled once it exceeds its sample budget; the aggregates
// reported by GaugeMax stay exact).
func (r *Recorder) GaugeSeries(name string) []float64 {
	if g := r.met.LookupGauge(name); g != nil {
		return g.Values()
	}
	return nil
}

// GaugeMax returns the peak recorded value of a gauge (0 when unseen) —
// exact over every observation, including downsampled ones.
func (r *Recorder) GaugeMax(name string) float64 {
	if g := r.met.LookupGauge(name); g != nil {
		return g.Max()
	}
	return 0
}

// RecorderStats reports the ring occupancy of a recorder.
type RecorderStats struct {
	Capacity int   `json:"capacity"`
	Retained int   `json:"retained"`
	Recorded int64 `json:"recorded"`
	Dropped  int64 `json:"dropped"`
}

// Stats snapshots the ring accounting: Recorded counts every span ever
// recorded, Dropped the ones overwritten by wraparound, and Retained the
// spans currently readable (Recorded == Dropped + Retained).
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderStats{Capacity: r.cap, Retained: len(r.buf), Recorded: r.recorded, Dropped: r.dropped}
}

// Events returns a copy of the retained events sorted by start time. The
// sorted view is maintained incrementally: it is rebuilt only when new
// events arrived since the last read (spans mostly complete in start
// order, so the rebuild is usually a linear verification pass), and
// repeated reads between writes reuse the cached ordering.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	if r.dirty {
		r.sorted = append(r.sorted[:0], r.buf...)
		if !sort.SliceIsSorted(r.sorted, func(i, j int) bool { return r.sorted[i].Start.Before(r.sorted[j].Start) }) {
			sort.SliceStable(r.sorted, func(i, j int) bool { return r.sorted[i].Start.Before(r.sorted[j].Start) })
		}
		r.dirty = false
	}
	out := append([]Event(nil), r.sorted...)
	r.mu.Unlock()
	return out
}

// Len returns the number of retained events (bounded by the ring capacity;
// see Stats for the total recorded).
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// MaxConcurrency returns the peak number of simultaneously open spans with
// the given name prefix — used to verify the "about four concurrent
// sub-QAOAs" observation from Fig. 5.
func (r *Recorder) MaxConcurrency(prefix string) int {
	type edge struct {
		t     time.Time
		delta int
	}
	var edges []edge
	for _, e := range r.Events() {
		if !strings.HasPrefix(e.Name, prefix) {
			continue
		}
		edges = append(edges, edge{e.Start, +1}, edge{e.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t.Equal(edges[j].t) {
			return edges[i].delta < edges[j].delta // close before open at ties
		}
		return edges[i].t.Before(edges[j].t)
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Timeline renders an ASCII Gantt chart of the events grouped by worker,
// the textual analog of the paper's Fig. 5. Instantaneous (zero-duration)
// events are excluded: they carry no extent to draw and belong to the
// metrics surface, not the execution timeline.
func (r *Recorder) Timeline(width int) string {
	var events []Event
	for _, e := range r.Events() {
		if e.Duration() > 0 {
			events = append(events, e)
		}
	}
	if len(events) == 0 {
		return "(no events)\n"
	}
	if width <= 0 {
		width = 80
	}
	start := events[0].Start
	end := events[0].End
	for _, e := range events {
		if e.Start.Before(start) {
			start = e.Start
		}
		if e.End.After(end) {
			end = e.End
		}
	}
	span := end.Sub(start)
	if span <= 0 {
		span = time.Nanosecond
	}
	byWorker := map[string][]Event{}
	var workers []string
	for _, e := range events {
		if _, ok := byWorker[e.Worker]; !ok {
			workers = append(workers, e.Worker)
		}
		byWorker[e.Worker] = append(byWorker[e.Worker], e)
	}
	sort.Strings(workers)
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %s total, %d events\n", span.Round(time.Millisecond), len(events))
	for _, w := range workers {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range byWorker[w] {
			s := int(float64(e.Start.Sub(start)) / float64(span) * float64(width-1))
			t := int(float64(e.End.Sub(start)) / float64(span) * float64(width-1))
			for i := s; i <= t && i < width; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-24s |%s|\n", w, string(row))
	}
	return b.String()
}
