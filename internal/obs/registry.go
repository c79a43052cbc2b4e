// Package obs is the run-wide observability layer: a zero-dependency
// metrics registry (atomic counters, gauges, and fixed-bucket
// histograms), lightweight phase/span timers, a periodic progress
// reporter, and two exposition formats (a Prometheus-style text dump
// and a JSON snapshot).
//
// Metrics come in two classes, kept separate in every exposition:
//
//   - deterministic metrics count work the pipeline performed — numbers
//     that depend only on the seed and the flags, never on the wall
//     clock or the shard count interleaving (transactions evaluated,
//     failures, episodes scanned, records ingested);
//   - wall-clock metrics measure elapsed real time and derived rates
//     (span durations, gzip time, throughput), which vary run to run.
//
// A run keeps one shared Registry whose atomic metrics are updated from
// any goroutine, with hot loops keeping plain local counters and
// folding them in once at shard completion (the pattern
// internal/measure uses so its per-transaction path stays
// allocation-free). Summation commutes, so the deterministic metrics do
// not depend on the shard count or on the order shards finish in.
//
// All instrumentation is stdout-silent: the registry writes only where
// it is told to (a file, an HTTP response, a caller-supplied stderr
// writer), so golden-stdout tests hold with metrics enabled.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; create
// with NewRegistry. All methods are safe for concurrent use, and every
// getter is nil-receiver-safe (a nil *Registry hands out nil metrics
// whose update methods no-op), so instrumented code needs no "is
// observability on?" branches.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing integer metric. The nil
// counter (handed out by a nil Registry) accepts updates and reads as
// zero.
type Counter struct {
	v    atomic.Int64
	wall bool
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways. The nil gauge
// accepts updates and reads as zero.
type Gauge struct {
	v    atomicFloat
	wall bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds v to the gauge.
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v.Add(v)
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. A histogram with
// upper bounds [b0, b1, ..., bn-1] has n+1 buckets: observation v lands
// in the first bucket whose bound satisfies v <= bound, or in the
// implicit +Inf overflow bucket. The nil histogram accepts observations
// and snapshots empty.
type Histogram struct {
	bounds []float64 // sorted ascending upper bounds
	counts []atomic.Int64
	sum    atomicFloat
	count  atomic.Int64
	wall   bool
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the overflow bucket is
	// len(bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// AddCounts folds pre-aggregated observations into the histogram:
// counts[i] observations landing in bucket i (len(bounds)+1 entries,
// the last being the +Inf overflow bucket) whose values total sum.
// Shard-local bucket arrays folded in once at shard completion are the
// no-atomics-per-event pattern internal/measure uses for its
// per-failure-class latency histograms. Nil-safe; panics on a bucket
// count mismatch.
func (h *Histogram) AddCounts(counts []int64, sum float64) {
	if h == nil {
		return
	}
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("obs: AddCounts with %d buckets into histogram with %d", len(counts), len(h.counts)))
	}
	var total int64
	for i, n := range counts {
		if n != 0 {
			h.counts[i].Add(n)
			total += n
		}
	}
	if total == 0 {
		return
	}
	h.sum.Add(sum)
	h.count.Add(total)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Counter returns the deterministic counter with the given name,
// creating it on first use. Names may carry a Prometheus-style label
// suffix, e.g. `records_total{pass="grids"}`.
func (r *Registry) Counter(name string) *Counter { return r.counter(name, false) }

// WallCounter returns the wall-clock counter with the given name.
func (r *Registry) WallCounter(name string) *Counter { return r.counter(name, true) }

// Gauge returns the deterministic gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge { return r.gauge(name, false) }

// WallGauge returns the wall-clock gauge with the given name.
func (r *Registry) WallGauge(name string) *Gauge { return r.gauge(name, true) }

// Histogram returns the deterministic histogram with the given name and
// bucket upper bounds (strictly ascending; the +Inf overflow bucket is
// implicit). Re-registering a name with different bounds panics.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, false)
}

// WallHistogram returns the wall-clock histogram with the given name
// and bounds.
func (r *Registry) WallHistogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, true)
}

func (r *Registry) counter(name string, wall bool) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		if c.wall != wall {
			panic(fmt.Sprintf("obs: counter %q re-registered with a different class", name))
		}
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{wall: wall}
	r.counters[name] = c
	return c
}

func (r *Registry) gauge(name string, wall bool) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		if g.wall != wall {
			panic(fmt.Sprintf("obs: gauge %q re-registered with a different class", name))
		}
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{wall: wall}
	r.gauges[name] = g
	return g
}

func (r *Registry) histogram(name string, bounds []float64, wall bool) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		if h.wall != wall || !equalBounds(h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different class or bounds", name))
		}
		return h
	}
	r.checkFree(name, "histogram")
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		wall:   wall,
	}
	r.hists[name] = h
	return h
}

// checkFree panics if name is already registered as another metric
// kind. Callers hold r.mu.
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %s %q already registered as a counter", kind, name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %s %q already registered as a gauge", kind, name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %s %q already registered as a histogram", kind, name))
	}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// atomicFloat is a float64 with atomic Store/Load/Add.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}
