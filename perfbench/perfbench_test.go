package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBench runs one invocation in-process over a short horizon and
// returns its parsed result line.
func runBench(t *testing.T, workload string, trace, shards int) result {
	t.Helper()
	wl, err := lookupWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	b := newBench(wl, 3, trace == 1, &errOut)
	b.hours, b.shards = 2, shards
	b.tmp, b.traceOut = dir, filepath.Join(dir, "spans.json")
	code := b.main(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %d shards %d: exit %d, result %+v\n%s", workload, trace, shards, code, res, errOut.String())
	}
	return res
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to what the
// harness emits, and layers.json to both.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEndMetrics) || len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the harness %d/%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range f.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s %s, harness %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range f.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, harness %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %s, harness %s", i, w.Name, workloads[i].name)
		}
	}

	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers struct {
		HeldOutSeed int64 `json:"held_out_seed"`
		Workloads   []struct {
			Name               string
			Stresses, Bypasses []string
		} `json:"workloads"`
		LayerMap []struct {
			Metrics, Moves, On []string
		} `json:"layer_map"`
	}
	if err := json.Unmarshal(raw, &layers); err != nil {
		t.Fatalf("layers.json: %v", err)
	}
	if layers.HeldOutSeed == 0 || layers.HeldOutSeed == 2005 {
		t.Errorf("layers.json names no held-out seed")
	}
	isWorkload, isE2E, mapped := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range workloads {
		isWorkload[w.name] = true
	}
	for _, d := range endToEndMetrics {
		isE2E[d.name] = true
	}
	for i, w := range layers.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name || len(w.Stresses) == 0 || len(w.Bypasses) == 0 {
			t.Errorf("layers.json workload %d (%s) does not match the harness or lacks stresses/bypasses", i, w.Name)
		}
	}
	known := map[string]bool{}
	for _, d := range perLayerMetrics {
		known[d.name] = true
	}
	for _, row := range layers.LayerMap {
		for _, m := range row.Metrics {
			if !known[m] {
				t.Errorf("layers.json maps unknown metric %s", m)
			}
			mapped[m] = true
		}
		for _, m := range row.Moves {
			if !isE2E[m] {
				t.Errorf("layers.json: %v moves unknown end-to-end metric %s", row.Metrics, m)
			}
		}
		for _, w := range row.On {
			if !isWorkload[w] {
				t.Errorf("layers.json: %v on unknown workload %s", row.Metrics, w)
			}
		}
	}
	for name := range known {
		if !mapped[name] {
			t.Errorf("layers.json does not map %s to an end-to-end metric", name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced over a
// short horizon: every metric BENCHMARK.json names is emitted with its
// unit, every check passes, and the traced pipeline's per-layer self
// times add up to its wall time.
func TestSmokeAllWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for trace, defs := range [][]struct{ Name, Unit string }{toPairs(f, false), toPairs(f, true)} {
			res := runBench(t, w.name, trace, 2)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want unit %s", w.name, trace, d.Name, m, ok, d.Unit)
				}
			}
			if trace == 0 {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			var sum float64
			for _, l := range selfLayers {
				sum += res.Metrics["self."+l+"_s"].Value
			}
			if p := res.Metrics["bench.pipeline_s"].Value; math.Abs(sum-p) > 1e-6*p {
				t.Errorf("%s: self times add up to %v, traced pipeline %v", w.name, sum, p)
			}
		}
	}
}

func toPairs(f benchmarkFile, perLayer bool) []struct{ Name, Unit string } {
	var out []struct{ Name, Unit string }
	if perLayer {
		for _, m := range f.PerLayer {
			out = append(out, struct{ Name, Unit string }{m.Name, m.Unit})
		}
		return out
	}
	for _, m := range f.EndToEnd {
		out = append(out, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	return out
}

// TestExactCountsRepeatAndIgnoreShards: the exact counts are identical
// for 1 and 2 shards and repeat bit for bit for the same seed.
//
// The dataset's size is shard-invariant only where one stream writes it
// (packet-6h): a fast-mode save writes one stream per shard, so its
// chunk boundaries follow the shard count. Nor does it repeat to the
// byte when several chunks are compressed concurrently: their order in
// the file follows worker timing, and the index's varint-encoded chunk
// offsets change length with it.
func TestExactCountsRepeatAndIgnoreShards(t *testing.T) {
	exact := []string{"measure.txns", "measure.failures", "simnet.events", "core.state_cells", "workload.episodes", "dataset.chunks"}
	for _, w := range workloads {
		one, two, again := runBench(t, w.name, 1, 1), runBench(t, w.name, 1, 2), runBench(t, w.name, 1, 2)
		for _, name := range exact {
			if two.Metrics[name].Value != again.Metrics[name].Value {
				t.Errorf("%s: %s differs between identical runs: %v vs %v", w.name, name, two.Metrics[name].Value, again.Metrics[name].Value)
			}
		}
		const size = "dataset.bytes_per_record"
		if x, y := two.Metrics[size].Value, again.Metrics[size].Value; math.Abs(x-y) > 1e-4*x {
			t.Errorf("%s: %s differs between identical runs: %v vs %v", w.name, size, x, y)
		}
		check := exact[:5] // dataset.chunks follows the writer's stream count
		if w.packet {
			check = append(exact, size)
		}
		for _, name := range check {
			if one.Metrics[name].Value != two.Metrics[name].Value {
				t.Errorf("%s: %s is %v with 1 shard, %v with 2", w.name, name, one.Metrics[name].Value, two.Metrics[name].Value)
			}
		}
	}
}

// TestCorruptDatasetIsAFailedCheck feeds chaos10k-reanalyze a stored
// dataset with one byte flipped, or truncated: each is a failed check,
// never a panic.
func TestCorruptDatasetIsAFailedCheck(t *testing.T) {
	wl, err := lookupWorkload("chaos10k-reanalyze")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(wl, 3, false, io.Discard)
	b.hours, b.tmp = 1, t.TempDir()
	g, err := b.generate(filepath.Join(b.tmp, "stored.wfds"), false)
	if err != nil {
		t.Fatal(err)
	}
	b.gen = g
	b.verifyGeneration()
	if b.iterate(0, false) == nil || b.checks.failed != 0 {
		t.Fatalf("the intact dataset fails: %d of %d checks", b.checks.failed, b.checks.run)
	}
	good, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int) []byte {
		c := bytes.Clone(good)
		c[off] ^= 0x40
		return c
	}
	cases := map[string][]byte{
		"magic":          flip(0),
		"chunk payload":  flip(100),
		"footer":         flip(len(good) - 1),
		"truncated":      good[:len(good)/2],
		"truncated tail": good[:len(good)-3],
	}
	for name, data := range cases {
		if err := os.WriteFile(g.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := b.checks.failed
		b.iters = nil
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic %v", name, r)
				}
			}()
			b.iterate(1, false)
		}()
		if b.checks.failed == before {
			t.Errorf("%s: the corrupt dataset passed every check", name)
		}
	}
}
