package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("txns_total")
	c.Add(40)
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("txns_total"); again != c {
		t.Fatal("second Counter call returned a different instance")
	}
	g := r.Gauge("depth")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
}

func TestNilRegistryHandsOutWorkingNilMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter reads nonzero")
	}
	g := r.WallGauge("y")
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge reads nonzero")
	}
	h := r.Histogram("z", []float64{1, 2})
	h.Observe(1.5)
	if h.Count() != 0 {
		t.Fatal("nil histogram counted an observation")
	}
	snap := r.Snapshot()
	if len(snap.Deterministic.Counters) != 0 || len(snap.Wall.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var sp Span
	sp = r.Span("phase")
	sp.End() // must not panic
}

// TestHistogramBucketBoundaries pins the boundary semantics: an
// observation equal to a bucket's upper bound lands in that bucket
// (v <= bound), anything above the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{
		0,    // -> bucket le=1
		1,    // boundary: -> bucket le=1
		1.01, // -> bucket le=10
		10,   // boundary: -> bucket le=10
		99.9, // -> bucket le=100
		100,  // boundary: -> bucket le=100
		101,  // -> +Inf
		1e9,  // -> +Inf
	} {
		h.Observe(v)
	}
	hs := r.Snapshot().Deterministic.Histograms["lat"]
	want := []int64{2, 2, 2, 2}
	if !reflect.DeepEqual(hs.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 8 {
		t.Fatalf("count = %d, want 8", hs.Count)
	}
	if want := 0 + 1 + 1.01 + 10 + 99.9 + 100 + 101 + 1e9; hs.Sum != want {
		t.Fatalf("sum = %v, want %v", hs.Sum, want)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a")
	r.WallGauge("b")
	r.Histogram("h", []float64{1, 2})
	mustPanic("kind change", func() { r.Gauge("a") })
	mustPanic("class change", func() { r.WallCounter("a") })
	mustPanic("gauge class change", func() { r.Gauge("b") })
	mustPanic("bounds change", func() { r.Histogram("h", []float64{1, 3}) })
	mustPanic("hist class change", func() { r.WallHistogram("h", []float64{1, 2}) })
	mustPanic("unsorted bounds", func() { r.Histogram("h2", []float64{2, 1}) })
}

// TestSnapshotJSONRoundTrip checks the snapshot survives
// encoding/json unchanged — the JSON exposition is lossless.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("det_c").Add(7)
	r.WallCounter("wall_c").Add(9)
	r.Gauge("det_g").Set(1.5)
	r.WallGauge("wall_g").Set(-2.75)
	h := r.Histogram("det_h", []float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)
	r.WallHistogram("wall_h", []float64{0.1}).Observe(0.05)

	snap := r.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("snapshot did not round-trip:\n before %+v\n after  %+v", snap, back)
	}
	if snap.Deterministic.Counters["det_c"] != 7 || snap.Wall.Counters["wall_c"] != 9 {
		t.Fatal("counters landed in the wrong section")
	}
	if snap.Deterministic.Gauges["det_g"] != 1.5 || snap.Wall.Gauges["wall_g"] != -2.75 {
		t.Fatal("gauges landed in the wrong section")
	}
	if _, ok := snap.Wall.Histograms["wall_h"]; !ok {
		t.Fatal("wall histogram missing from wall section")
	}
}

// TestConcurrentUpdates exercises the registry from many goroutines —
// meaningful primarily under -race — then checks the totals, which
// must be exact (atomic, no lost updates).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// get-or-create races with other workers on purpose.
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{0.5}).Observe(float64(i % 2))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot().Deterministic
	const total = workers * perWorker
	if snap.Counters["c"] != total {
		t.Fatalf("counter = %d, want %d", snap.Counters["c"], total)
	}
	if snap.Gauges["g"] != total {
		t.Fatalf("gauge = %v, want %d", snap.Gauges["g"], total)
	}
	if hs := snap.Histograms["h"]; hs.Count != total {
		t.Fatalf("histogram count = %d, want %d", hs.Count, total)
	}
}
