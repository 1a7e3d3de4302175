// Package obs is the engine's observability subsystem: a low-overhead
// metrics registry, a per-transaction lifecycle tracer, and an HTTP
// admin surface (Prometheus/JSON metrics, a live wait-for-graph
// inspector, an active-transaction table, pprof).
//
// Everything is fed by the structured core.Event stream the engine
// already emits — the collector and tracer are just event sinks chained
// onto core.Config.OnEvent — plus the point-in-time snapshot
// (core.System.DebugSnapshot) for the live inspector.
// The hot path costs a handful of atomic increments per event; tracing
// is off by default and short-circuits on one atomic load.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is anything the registry can expose.
type metric interface {
	name() string
	// writeProm appends the Prometheus text exposition of the metric.
	writeProm(b *strings.Builder)
	// jsonValue returns the expvar-style JSON value of the metric.
	jsonValue() any
}

// Registry holds named metrics and renders them as Prometheus text or
// expvar-style JSON. All methods are safe for concurrent use; metric
// updates are atomic and never block on the registry.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name()] {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name()))
	}
	r.byName[m.name()] = true
	r.metrics = append(r.metrics, m)
}

// snapshot returns the metric list sorted by name.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	out := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name() < out[j].name() })
	return out
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, m := range r.snapshot() {
		m.writeProm(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders every metric as one JSON object keyed by metric
// name (expvar style): counters and gauges map to numbers, histograms
// to {buckets, sum, count} objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]any{}
	for _, m := range r.snapshot() {
		out[m.name()] = m.jsonValue()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	nm, help string
	v        atomic.Int64
}

// NewCounter registers and returns a counter. Counter names should end
// in "_total" by Prometheus convention.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, help: help}
	r.add(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) name() string { return c.nm }

func (c *Counter) writeProm(b *strings.Builder) {
	writeHeader(b, c.nm, c.help, "counter")
	fmt.Fprintf(b, "%s %d\n", c.nm, c.v.Load())
}

func (c *Counter) jsonValue() any { return c.v.Load() }

// Gauge is an instantaneous value, read from a function at collection
// time (so it can expose state owned elsewhere — queue depths, active
// sessions — without copying it on every update).
type Gauge struct {
	nm, help string
	f        func() int64
}

// NewGauge registers a function gauge. f is called at collection time
// and must be safe for concurrent use.
func (r *Registry) NewGauge(name, help string, f func() int64) *Gauge {
	g := &Gauge{nm: name, help: help, f: f}
	r.add(g)
	return g
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.f() }

func (g *Gauge) name() string { return g.nm }

func (g *Gauge) writeProm(b *strings.Builder) {
	writeHeader(b, g.nm, g.help, "gauge")
	fmt.Fprintf(b, "%s %d\n", g.nm, g.f())
}

func (g *Gauge) jsonValue() any { return g.f() }

// GaugeSet exposes a dynamic set of named values read from one function
// at collection time — e.g. a server's whole counter snapshot, or the
// buffer pool's counters. Each pair
// is rendered as "<prefix><name>".
type GaugeSet struct {
	prefix, help string
	f            func() []KV
}

// KV is one name/value pair of a GaugeSet.
type KV struct {
	Name string
	Val  int64
}

// NewGaugeSet registers a gauge set. f is called at collection time and
// must be safe for concurrent use; names it returns must be stable and
// must not collide with other metrics.
func (r *Registry) NewGaugeSet(prefix, help string, f func() []KV) *GaugeSet {
	g := &GaugeSet{prefix: prefix, help: help, f: f}
	r.add(g)
	return g
}

func (g *GaugeSet) name() string { return g.prefix }

func (g *GaugeSet) writeProm(b *strings.Builder) {
	kvs := g.f()
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Name < kvs[j].Name })
	for _, kv := range kvs {
		n := g.prefix + sanitize(kv.Name)
		writeHeader(b, n, g.help, "gauge")
		fmt.Fprintf(b, "%s %d\n", n, kv.Val)
	}
}

func (g *GaugeSet) jsonValue() any {
	out := map[string]int64{}
	for _, kv := range g.f() {
		out[sanitize(kv.Name)] = kv.Val
	}
	return out
}

// Histogram is a fixed-bucket histogram of int64 observations with
// atomic counts. Buckets are cumulative in the Prometheus exposition.
// An optional render scale lets durations be recorded in nanoseconds
// but exposed in seconds (see NewDurationHistogram).
type Histogram struct {
	nm, help string
	// bounds are inclusive upper bounds, strictly increasing; the
	// implicit final bucket is +Inf.
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	n      atomic.Int64
	scale  float64 // multiplier applied to bounds and sum when rendering
}

// NewHistogram registers a histogram over the given inclusive upper
// bounds (must be strictly increasing and non-empty).
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	h := newHistogram(name, help, bounds, 1)
	r.add(h)
	return h
}

// NewDurationHistogram registers a histogram observed in
// time.Duration but exposed in seconds (Prometheus convention); name
// it accordingly (e.g. "..._seconds").
func (r *Registry) NewDurationHistogram(name, help string, bounds []time.Duration) *DurationHistogram {
	bs := make([]int64, len(bounds))
	for i, d := range bounds {
		bs[i] = int64(d)
	}
	h := newHistogram(name, help, bs, 1e-9)
	r.add(h)
	return &DurationHistogram{h: h}
}

func newHistogram(name, help string, bounds []int64, scale float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not increasing", name))
		}
	}
	return &Histogram{
		nm: name, help: help,
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		scale:  scale,
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values (in the observation unit).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns the cumulative counts per bound (the +Inf bucket is
// Count()).
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.bounds))
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) name() string { return h.nm }

// renderBound formats a bucket bound in the exposition unit.
func (h *Histogram) renderBound(b int64) string {
	if h.scale == 1 {
		return fmt.Sprintf("%d", b)
	}
	return trimFloat(float64(b) * h.scale)
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func (h *Histogram) writeProm(b *strings.Builder) {
	writeHeader(b, h.nm, h.help, "histogram")
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.nm, h.renderBound(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, h.n.Load())
	if h.scale == 1 {
		fmt.Fprintf(b, "%s_sum %d\n", h.nm, h.sum.Load())
	} else {
		fmt.Fprintf(b, "%s_sum %s\n", h.nm, trimFloat(float64(h.sum.Load())*h.scale))
	}
	fmt.Fprintf(b, "%s_count %d\n", h.nm, h.n.Load())
}

// histJSON is the JSON shape of a histogram.
type histJSON struct {
	Buckets []histBucket `json:"buckets"`
	Sum     float64      `json:"sum"`
	Count   int64        `json:"count"`
}

type histBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

func (h *Histogram) jsonValue() any {
	out := histJSON{Count: h.n.Load()}
	if h.scale == 1 {
		out.Sum = float64(h.sum.Load())
	} else {
		out.Sum = float64(h.sum.Load()) * h.scale
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		out.Buckets = append(out.Buckets, histBucket{LE: h.renderBound(bound), Count: cum})
	}
	out.Buckets = append(out.Buckets, histBucket{LE: "+Inf", Count: h.n.Load()})
	return out
}

// DurationHistogram wraps a Histogram whose observations are durations
// (stored in nanoseconds, exposed in seconds).
type DurationHistogram struct {
	h *Histogram
}

// Observe records one duration.
func (d *DurationHistogram) Observe(v time.Duration) { d.h.Observe(int64(v)) }

// Count returns the number of observations.
func (d *DurationHistogram) Count() int64 { return d.h.Count() }

// Sum returns the total observed duration.
func (d *DurationHistogram) Sum() time.Duration { return time.Duration(d.h.Sum()) }

func writeHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// sanitize maps arbitrary counter names onto the Prometheus metric
// name alphabet ([a-zA-Z0-9_:]).
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
