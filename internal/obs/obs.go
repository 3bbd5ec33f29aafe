// Package obs is the repository's stdlib-only observability substrate:
// atomic counters and gauges, fixed-bucket mergeable histograms, a
// namespaced Registry with JSON and expvar export, and a lightweight
// ring-buffered span tracer (trace.go).
//
// Two properties shape the API:
//
//   - Nil safety. Every instrument method is a no-op on a nil receiver,
//     and a nil *Registry hands out nil instruments. Instrumented code
//     therefore needs no "is observability on?" branching on the hot
//     path: it asks the (possibly nil) registry for instruments once, at
//     construction, and calls them unconditionally. The nil path costs a
//     single predictable branch — the "no-op registry" baseline of the
//     engine's overhead benchmarks.
//   - Allocation consciousness. Counter/Gauge updates are single atomic
//     ops; Histogram.Observe is a binary search plus two atomics; none of
//     them allocate. Name lookups (which do allocate map iterators under
//     a lock) happen at construction time only.
//
// The package-wide Default registry plays the role expvar's top-level
// functions play in the stdlib: a process-global sink for call sites
// (like checkpoint persistence) with no natural configuration surface.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on a nil receiver).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 — a "last observed value"
// instrument (current epoch loss, items indexed, …). The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: observation v lands in the
// first bucket whose upper bound is >= v, or the overflow bucket when it
// exceeds every bound. Buckets are cumulative-free (each holds its own
// count) and updates are atomic. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64      // ascending upper bounds, immutable after New
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds an unregistered histogram over the given ascending
// bucket upper bounds. It panics on empty or unsorted bounds — bucket
// layout is configuration, not data, and a bad layout should fail at
// construction, loudly.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at index %d", i))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value (no-op on a nil receiver). It never
// allocates: a binary search locates the bucket, then two atomic
// updates record the observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Snapshot captures the histogram's current state. A nil histogram (the
// instrument a nil registry hands out) yields a zero snapshot, whose
// Quantile is NaN.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, the JSON
// export shape. Counts is parallel to Bounds plus a trailing overflow
// bucket.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the bucket that contains
// it: the bucket's lower edge (0 for the first bucket) plus the
// fraction of the bucket's count the target rank reaches. Observations
// in the overflow bucket have no upper edge, so any quantile landing
// there reports the last finite bound — a deliberate underestimate that
// a dashboard reads as "at least this much". An empty snapshot has no
// quantiles: the result is NaN.
//
// The estimate's resolution is the bucket width; use FineLatencyBounds
// (factor-2 buckets) rather than LatencyBounds (factor-4) for
// histograms that feed p99/p999 reporting.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next < target {
			cum = next
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no upper edge to interpolate toward.
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (target - cum) / float64(n)
		return lo + frac*(hi-lo)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a point-in-time copy of a Registry: every counter, gauge
// and histogram by fully qualified name. encoding/json marshals map keys
// in sorted order, so the export is deterministic for golden tests and
// diffable across scrapes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a namespaced instrument directory: the first Counter /
// Gauge / Histogram call for a name creates the instrument, subsequent
// calls return the same one, and Snapshot/WriteJSON export everything.
// All methods are safe for concurrent use; a nil *Registry hands out nil
// (no-op) instruments, so "observability off" is just a nil registry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	tracer     *Tracer
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// defaultRegistry is the process-global registry behind Default.
var defaultRegistry = New()

// Default returns the process-global registry — the sink for call sites
// with no configuration surface of their own (checkpoint persistence
// counters, the CLI's -debug-addr /metrics endpoint). Library types that
// do have options (engine.Options, TrainData) take an explicit registry
// instead and treat nil as "off".
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return instrument(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use; later calls return the existing histogram
// regardless of the bounds they pass (first caller wins — bucket layout
// is part of the metric's identity). A nil registry returns a nil
// (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return instrument(r, r.histograms, name, func() *Histogram { return NewHistogram(bounds) })
}

// instrument returns the instrument named name in m, one of r's maps,
// creating it with mk on first use. Callers look their instruments up
// once, when they are built, so one exclusive lock serves every lookup.
func instrument[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := m[name]
	if v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Tracer returns the registry's span tracer, creating a
// DefaultTraceCapacity-sized one on first use. A nil registry returns a
// nil (no-op) tracer.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracer == nil {
		r.tracer = NewTracer(DefaultTraceCapacity)
	}
	return r.tracer
}

// Snapshot captures every instrument's current value. A nil registry
// yields an empty (but non-nil-mapped) snapshot, so callers can always
// marshal it.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Names returns the sorted fully qualified names of every registered
// instrument — the metric-name table of DESIGN.md is checked against
// this in tests.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes the registry snapshot as indented JSON — the payload
// of the CLI's /metrics endpoint and the bin/metrics.json CI artifact.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Expvar adapts the registry to an expvar.Var, for publishing next to
// the stdlib's memstats on a debug server:
//
//	expvar.Publish("traj2hash", reg.Expvar())
func (r *Registry) Expvar() expvar.Var {
	return expvar.Func(func() any { return r.Snapshot() })
}

// LatencyBounds returns the standard latency bucket layout, in seconds:
// 1µs to ~16s in powers of four. Shared by every latency histogram in
// the tree so per-shard, per-backend, and merge timings merge and
// compare directly.
func LatencyBounds() []float64 {
	out := make([]float64, 13)
	v := 1e-6
	for i := range out {
		out[i] = v
		v *= 4
	}
	return out
}

// FineLatencyBounds returns the high-resolution latency bucket layout,
// in seconds: 1µs to ~8s in powers of two. Twice the buckets of
// LatencyBounds for half the width — the layout for histograms whose
// tail quantiles (p99/p999, via HistogramSnapshot.Quantile) are
// reported numbers rather than order-of-magnitude summaries, like the
// serving layer's per-request latency.
func FineLatencyBounds() []float64 {
	out := make([]float64, 24)
	v := 1e-6
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// CountBounds returns the standard bucket layout for small-count
// distributions (candidate counts, batch sizes): 1 to ~1M in powers of
// four.
func CountBounds() []float64 {
	out := make([]float64, 11)
	v := 1.0
	for i := range out {
		out[i] = v
		v *= 4
	}
	return out
}

// MagnitudeBounds returns the standard bucket layout for unit-free
// magnitudes (gradient norms, losses): 1e-4 to ~1e5 in powers of ten.
func MagnitudeBounds() []float64 {
	out := make([]float64, 10)
	v := 1e-4
	for i := range out {
		out[i] = v
		v *= 10
	}
	return out
}
