package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"webfail/internal/obs"
)

// detSection extracts the deterministic section of a Prometheus-style
// dump, dropping the counters that legitimately vary with the ingest
// width: boundary chunks are decoded once per overlapping shard, so
// chunk and byte read counts grow with -parallel while every
// record-level counter stays exact.
func detSection(t *testing.T, dump []byte) string {
	t.Helper()
	text := string(dump)
	i := strings.Index(text, "# wall-clock metrics")
	if i < 0 {
		t.Fatalf("no wall-clock section marker in dump:\n%s", text)
	}
	var keep []string
	for _, line := range strings.Split(text[:i], "\n") {
		if strings.HasPrefix(line, "dataset_chunks_read_total") ||
			strings.HasPrefix(line, "dataset_bytes_read_total") ||
			strings.HasPrefix(line, "# TYPE dataset_chunks_read_total") ||
			strings.HasPrefix(line, "# TYPE dataset_bytes_read_total") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestGoldenStdoutWithMetrics re-runs the golden-stdout scenario with
// the full observability surface enabled (-progress, -metrics-out):
// stdout must stay byte-identical to the golden file, the dump must be
// non-empty, and the deterministic section (minus the documented
// chunk-granularity counters) must be identical for every -parallel
// value and across repeated runs.
func TestGoldenStdoutWithMetrics(t *testing.T) {
	path := fixtureDataset(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_stdout.txt"))
	if err != nil {
		t.Fatalf("read golden (regenerate with go test -run TestGoldenStdout -update): %v", err)
	}

	var refDet string
	for _, par := range []int{1, 2, 4} {
		mpath := filepath.Join(t.TempDir(), "m.txt")
		var out, errOut bytes.Buffer
		args := []string{"-in", path, "-top", "5", "-parallel", strconv.Itoa(par),
			"-progress", "-metrics-out", mpath}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run(-parallel %d): %v\nstderr: %s", par, err, errOut.String())
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Errorf("-parallel %d: stdout with metrics enabled differs from golden", par)
		}
		if !strings.Contains(errOut.String(), "progress done") {
			t.Errorf("-parallel %d: no progress summary on stderr:\n%s", par, errOut.String())
		}
		dump, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatalf("-parallel %d: metrics dump: %v", par, err)
		}
		if len(dump) == 0 {
			t.Fatalf("-parallel %d: empty metrics dump", par)
		}
		for _, want := range []string{
			// The summary comes from the analyzer passes, so each of the
			// fixture's 268 stored records is read once at any width.
			"\ndataset_records_read_total 268\n",
			`core_records_ingested_total{passes="totals,traffic,grids,pairs"}`,
			`span_count{span="ingest"}`,
		} {
			if !strings.Contains(string(dump), want) {
				t.Errorf("-parallel %d: dump missing %q:\n%s", par, want, dump)
			}
		}
		det := detSection(t, dump)
		if refDet == "" {
			refDet = det
			continue
		}
		if det != refDet {
			t.Errorf("-parallel %d: deterministic metrics differ from -parallel 1:\n got:\n%s\nwant:\n%s", par, det, refDet)
		}
	}

	// Repeatability: a second identical run dumps an identical
	// deterministic section.
	mpath := filepath.Join(t.TempDir(), "m2.txt")
	var out, errOut bytes.Buffer
	if err := run([]string{"-in", path, "-top", "5", "-parallel", "1", "-metrics-out", mpath}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if det := detSection(t, dump); det != refDet {
		t.Errorf("repeated run's deterministic metrics differ:\n got:\n%s\nwant:\n%s", det, refDet)
	}
}

// TestRunLogsThroughObs checks the shared logger path: run failures
// surfaced by main() go through obs.Logf with the component prefix.
func TestRunLogsThroughObs(t *testing.T) {
	var log bytes.Buffer
	restore := obs.SetLogOutput(&log)
	defer restore()
	obs.Logf(component, "%v", "boom")
	if got := log.String(); got != "webfail-analyze: boom\n" {
		t.Fatalf("log line = %q", got)
	}
}
