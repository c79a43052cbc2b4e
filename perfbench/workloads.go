package main

import (
	"fmt"
	"os"
	"time"

	"webfail/internal/core"
	"webfail/internal/dataset"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// worldSeed is the CLI's default -seed. Every workload keeps the fault
// timeline it gives, and the workload seed is the per-transaction
// sampling seed (-runseed) only: the timeline decides too much of the
// work. Varied with the workload seed, it spread the stored-record count
// of 24 h of 32 x 32 packet clients and sites by a quarter between
// seeds, and the 10k-chaos dataset's size by 0.15 over five seeds.
const worldSeed = 2005

// benchWorkload is one closed batch job the benchmark runs to completion.
// BENCHMARK.json and layers.json say why each was chosen and which
// layers it stresses and bypasses.
type benchWorkload struct {
	name     string
	scenario string
	hours    int64 // horizon
	clients  int   // roster limit (0 = all)
	sites    int
	// packet simulates with the packet engine instead of the fast one.
	packet bool
	// reanalyze times the analysis of a stored dataset, written once per
	// invocation before any timing, instead of a live simulation.
	reanalyze bool
}

var workloads = []benchWorkload{
	{name: "paper-day", scenario: "paper-default", hours: 24},
	{name: "chaos10k-reanalyze", scenario: "10k-chaos", hours: 24, reanalyze: true},
	{name: "packet-6h", scenario: "paper-default", hours: 6, clients: 32, sites: 32, packet: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// world is a compiled scenario: roster, fault scenario and window.
type world struct {
	spec       *scenario.Spec
	topo       *workload.Topology
	sc         *workload.Scenario
	seed       int64 // scenario seed
	runSeed    int64
	start, end simnet.Time
}

// buildWorld runs the scenario layer (spec resolve and compile) and the
// workload layer (fault timeline), timing each. runSeed is the sampling
// seed; the scenario seed is worldSeed.
func buildWorld(wl benchWorkload, runSeed, hours int64) (w *world, compile, build time.Duration, err error) {
	t0 := time.Now()
	spec, err := scenario.Resolve(wl.scenario)
	if err != nil {
		return nil, 0, 0, err
	}
	topo, err := spec.Topology(wl.clients, wl.sites)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	end := simnet.FromHours(hours)
	params, err := spec.Params(worldSeed, 0, end)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	t1 := time.Now()
	sc := workload.BuildScenario(topo, params)
	t2 := time.Now()
	return &world{spec: spec, topo: topo, sc: sc, seed: worldSeed, runSeed: runSeed, end: end}, t1.Sub(t0), t2.Sub(t1), nil
}

func (w *world) config() measure.Config {
	return measure.Config{Topo: w.topo, Scenario: w.sc, Seed: w.runSeed, Start: w.start, End: w.end}
}

// meta is the dataset header `webfail -save` writes for this world.
func (w *world) meta() measure.DatasetMeta {
	return measure.DatasetMeta{
		Seed: w.seed, RunSeed: w.runSeed, StartUnix: w.start.Unix(), EndUnix: w.end.Unix(),
		Clients: len(w.topo.Clients), Websites: len(w.topo.Websites),
		Scenario: w.spec.Name, SpecHash: w.spec.Hash(), SpecJSON: w.spec.CanonicalJSON(),
	}
}

// checkMeta compares a stored dataset header with the world that wrote
// it and the transaction and failure counts the engine reported.
func (w *world) checkMeta(got measure.DatasetMeta, txns, fails int64) error {
	want := w.meta()
	want.Transactions, want.Failures = txns, fails
	if got.Seed != want.Seed || got.RunSeed != want.RunSeed || got.StartUnix != want.StartUnix ||
		got.EndUnix != want.EndUnix || got.Clients != want.Clients || got.Websites != want.Websites ||
		got.Scenario != want.Scenario || got.SpecHash != want.SpecHash || string(got.SpecJSON) != string(want.SpecJSON) ||
		got.Transactions != want.Transactions || got.Failures != want.Failures {
		return fmt.Errorf("stored meta %+v differs from the run's (seeds %d/%d, %d txns, %d failures, spec %s)",
			metaSummary(got), want.Seed, want.RunSeed, txns, fails, want.SpecHash[:12])
	}
	return nil
}

func metaSummary(m measure.DatasetMeta) string {
	return fmt.Sprintf("seed=%d runseed=%d window=[%d,%d) roster=%dx%d scenario=%s txns=%d failures=%d",
		m.Seed, m.RunSeed, m.StartUnix, m.EndUnix, m.Clients, m.Websites, m.Scenario, m.Transactions, m.Failures)
}

// stage is one pipeline iteration's set-up: everything the pipeline
// needs before its first record.
type stage struct {
	w *world
	// Simulating workloads: the merged accumulator and the dataset being
	// written.
	a    *core.Analysis
	path string
	file *os.File
	dw   *dataset.Writer
	// Re-analysing workloads: the stored dataset.
	src dataset.RecordSource

	compile, build, total time.Duration
}

// setup builds one iteration's stage, timing it: the scenario and
// workload layers, then core.NewAnalysisOpts and dataset.NewWriter when
// simulating, or dataset.Open when re-analysing. path is the dataset to
// write or read.
func setup(wl benchWorkload, runSeed, hours int64, path string) (*stage, error) {
	t0 := time.Now()
	w, compile, build, err := buildWorld(wl, runSeed, hours)
	if err != nil {
		return nil, err
	}
	st := &stage{w: w, path: path, compile: compile, build: build}
	if wl.reanalyze {
		if st.file, err = os.Open(path); err != nil {
			return nil, err
		}
		fi, err := st.file.Stat()
		if err == nil {
			st.src, err = dataset.Open(st.file, fi.Size())
		}
		if err != nil {
			st.file.Close()
			return nil, fmt.Errorf("dataset.Open: %w", err)
		}
	} else {
		st.a = core.NewAnalysisOpts(w.topo, w.start, w.end, core.Options{})
		if st.file, err = os.Create(path); err != nil {
			return nil, err
		}
		if st.dw, err = dataset.NewWriter(st.file, w.meta(), dataset.Options{}); err != nil {
			st.file.Close()
			os.Remove(path)
			return nil, fmt.Errorf("dataset.NewWriter: %w", err)
		}
	}
	st.total = time.Since(t0)
	return st, nil
}

// release closes the stage's writer (stopping its compression workers)
// and file; a written dataset is removed unless keep is set. Both closes
// are harmless after the pipeline's own.
func (st *stage) release(keep bool) {
	if st.dw != nil {
		st.dw.Close()
	}
	st.file.Close()
	if st.dw != nil && !keep {
		os.Remove(st.path)
	}
}

// openDataset opens a stored dataset for a check or a layer measurement;
// the caller calls the returned close.
func openDataset(path string) (dataset.RecordSource, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	src, err := dataset.Open(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("dataset.Open: %w", err)
	}
	return src, func() { f.Close() }, nil
}
