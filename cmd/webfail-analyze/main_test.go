package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"webfail/internal/dataset"
	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureDataset deterministically regenerates the small dataset the
// golden tests analyze: 12 clients x 8 websites over 24 hours with
// fixed scenario and run seeds, streamed through the same sink path
// `webfail -save` uses. The workload and measurement layers are fully
// deterministic, so the bytes under analysis are identical on every
// run and the golden files can be checked in without the dataset. Its
// header carries no run seed, like datasets written before run-seed
// metadata existed.
func fixtureDataset(t *testing.T) string {
	t.Helper()
	topo := scenario.PaperScaledTopology(12, 8)
	end := simnet.FromHours(24)
	sc := workload.BuildScenario(topo, scenario.PaperParams(2005, 0, end))
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	meta := measure.DatasetMeta{
		Seed: 2005, StartUnix: simnet.Time(0).Unix(), EndUnix: end.Unix(),
		Clients: len(topo.Clients), Websites: len(topo.Websites),
	}
	return saveRun(t, meta, func(visit func(*measure.Record)) error { return measure.Run(cfg, visit) })
}

// saveRun streams the records of run through one dataset sink, as
// `webfail -save` does at one shard, into a fresh file with header meta
// and returns its path.
func saveRun(t *testing.T, meta measure.DatasetMeta, run func(visit func(*measure.Record)) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fixture.ds")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := dataset.NewWriter(f, meta, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := dw.NewSink()
	var sinkErr error
	if err := run(func(r *measure.Record) {
		if err := sink.Observe(r); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s (%d vs %d bytes); regenerate with -update if the change is intended",
			path, len(got), len(want))
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Errorf("first diff at line %d:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
				break
			}
		}
	}
}

// TestGoldenStdout locks the full default stdout of webfail-analyze for
// the fixture dataset. Any -parallel value must produce byte-identical
// stdout (the shard count goes to stderr), so the same golden file is
// asserted at several ingest widths.
func TestGoldenStdout(t *testing.T) {
	path := fixtureDataset(t)
	for _, par := range []int{1, 2, 4} {
		var out, errOut bytes.Buffer
		args := []string{"-in", path, "-top", "5", "-parallel", strconv.Itoa(par)}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run(-parallel %d): %v\nstderr: %s", par, err, errOut.String())
		}
		if par == 1 {
			checkGolden(t, "golden_stdout.txt", out.Bytes())
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden_stdout.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-parallel %d stdout differs from golden", par)
		}
	}
}

// v3FixturePath is a checked-in small dataset that an earlier writer
// produced (8 clients x 6 websites over 12 hours, stored without
// scenario metadata). It is never regenerated: it pins bytes a past
// writer wrote, so the test below keeps proving today's reader
// understands yesterday's files — not merely today's writer.
const v3FixturePath = "testdata/v3small.bin"

// TestGoldenV3Small pins the analysis of the checked-in fixture at
// several ingest widths.
func TestGoldenV3Small(t *testing.T) {
	for _, par := range []int{1, 2} {
		var out, errOut bytes.Buffer
		args := []string{"-in", v3FixturePath, "-top", "5", "-parallel", strconv.Itoa(par)}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run(-parallel %d): %v\nstderr: %s", par, err, errOut.String())
		}
		checkGolden(t, "golden_v3small.txt", out.Bytes())
	}
}

// TestGoldenArtifacts locks the stdout of a full-report run
// (-artifacts all), which exercises every analyzer pass and every
// report artifact over the stored records.
func TestGoldenArtifacts(t *testing.T) {
	path := fixtureDataset(t)
	var out, errOut bytes.Buffer
	args := []string{"-in", path, "-top", "3", "-parallel", "2", "-artifacts", "all"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errOut.String())
	}
	checkGolden(t, "golden_artifacts.txt", out.Bytes())
}

// TestTopFlagBounds: a negative -top is refused before the dataset is
// read, never a slice-bounds panic in the top-N listings; -top 0 still
// prints the (empty) listings.
func TestTopFlagBounds(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-in", v3FixturePath, "-top", "-1"}, &out, &errOut); err == nil {
		t.Error("-top -1 accepted")
	}
	out.Reset()
	if err := run([]string{"-in", v3FixturePath, "-top", "0"}, &out, &errOut); err != nil {
		t.Fatalf("-top 0: %v", err)
	}
	if !strings.Contains(out.String(), "top 0 failing clients:") {
		t.Errorf("-top 0 did not print the empty listings:\n%s", out.String())
	}
}

// TestOutOfRosterRecord: a stored record the analysis cannot place —
// past the header's roster, under a header roster the rebuilt scenario
// does not match, or outside the header's window — must fail both the
// default summary and the full report with an error, never panic a
// pass indexing its grids, drop the record, or clamp it into an edge
// bin.
func TestOutOfRosterRecord(t *testing.T) {
	end := simnet.FromHours(12)
	meta := func(clients, websites int) measure.DatasetMeta {
		return measure.DatasetMeta{
			Seed: 2005, StartUnix: simnet.Time(0).Unix(), EndUnix: end.Unix(),
			Clients: clients, Websites: websites,
		}
	}
	ok := measure.Record{ClientIdx: 0, SiteIdx: 1, At: simnet.FromHours(1), Stage: httpsim.StageTCP, Conns: 1}
	cases := []struct {
		name string
		meta measure.DatasetMeta
		bad  measure.Record
		want string // in the error
	}{
		{"site past the header roster", meta(8, 6),
			measure.Record{ClientIdx: 7, SiteIdx: 580, At: simnet.FromHours(2), Stage: httpsim.StageTCP, Conns: 1}, "or 6 websites"},
		{"header wider than the scenario's websites", meta(8, 5000),
			measure.Record{ClientIdx: 7, SiteIdx: 4000, At: simnet.FromHours(2), Stage: httpsim.StageDNS, DNS: measure.DNSLDNSTimeout}, "8 clients x 5000 websites does not match"},
		{"header wider than the scenario's clients", meta(5000, 6),
			measure.Record{ClientIdx: 4000, SiteIdx: 2, At: simnet.FromHours(2), Stage: httpsim.StageTCP, Conns: 1}, "5000 clients x 6 websites does not match"},
		{"record before the window", meta(8, 6),
			measure.Record{ClientIdx: 7, SiteIdx: 2, At: -simnet.FromHours(3), Stage: httpsim.StageTCP, Conns: 1}, "outside the analysis window"},
		{"record after the window", meta(8, 6),
			measure.Record{ClientIdx: 7, SiteIdx: 2, At: simnet.FromHours(500), Stage: httpsim.StageTCP, Conns: 1}, "outside the analysis window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeDataset(t, tc.meta, []measure.Record{ok, tc.bad})
			for _, extra := range [][]string{nil, {"-artifacts", "all"}} {
				var out, errOut bytes.Buffer
				args := append([]string{"-in", path}, extra...)
				err := run(args, &out, &errOut)
				if err == nil {
					t.Errorf("%v succeeded:\n%s", args[2:], out.String())
				} else if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%v: error %q does not contain %q", args[2:], err, tc.want)
				}
			}
		})
	}
}

// writeDataset stores recs under meta in a fresh dataset file.
func writeDataset(t *testing.T, meta measure.DatasetMeta, recs []measure.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.ds")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := dataset.NewWriter(f, meta, dataset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := w.NewSink()
	for i := range recs {
		if err := sink.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
