package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// elapsedLine matches the wall-clock line of a run, the only
// nondeterministic output; goldens store it normalized.
var elapsedLine = regexp.MustCompile(`(?m)^run completed in [^:]+:`)

func normalize(out []byte) []byte {
	return elapsedLine.ReplaceAll(out, []byte("run completed in ELAPSED:"))
}

func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return normalize(buf.Bytes())
}

// goldenCases pins the CLI's stdout for the paper-default world across
// the engine modes and shard counts.
// These goldens predate the scenario refactor: byte-identity here is
// the proof that spec-driven generation reproduces the hard-coded
// roster exactly.
var goldenCases = []struct {
	golden string
	args   []string
}{
	{"golden_fast_h6_p1.txt", []string{"-hours", "6", "-parallel", "1"}},
	{"golden_fast_h6_p4.txt", []string{"-hours", "6", "-parallel", "4"}},
	{"golden_fast_h6_p2.txt", []string{"-hours", "6", "-parallel", "2"}},
	{"golden_packet_h4_p1.txt", []string{"-hours", "4", "-clients", "25", "-sites", "12", "-mode", "packet", "-parallel", "1"}},
	{"golden_packet_h4_p3.txt", []string{"-hours", "4", "-clients", "25", "-sites", "12", "-mode", "packet", "-parallel", "3"}},
}

func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds each")
	}
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			got := runCLI(t, tc.args...)
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (run with -update to regenerate)\ngot %d bytes, want %d bytes",
					path, len(got), len(want))
			}
		})
	}
}

// TestScenarioFlagDefaultEquivalence proves the -scenario flag's three
// paper-default spellings — absent, by name, and by checked-in file
// path — produce byte-identical output.
func TestScenarioFlagDefaultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fast engine three times")
	}
	base := []string{"-hours", "2", "-parallel", "2"}
	want := runCLI(t, base...)
	for _, sc := range []string{"paper-default", "../../scenarios/paper-default.json"} {
		got := runCLI(t, append([]string{"-scenario", sc}, base...)...)
		if !bytes.Equal(got, want) {
			t.Errorf("-scenario %s: output differs from default (%d vs %d bytes)", sc, len(got), len(want))
		}
	}
}

// TestScenarioSerialParallelEquivalence pins the determinism contract
// on a non-paper world: a generated fleet must produce identical output
// for any -parallel value, exactly like the paper roster.
func TestScenarioSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a generated fleet twice")
	}
	base := []string{"-scenario", "cascading-outage", "-hours", "2"}
	serial := runCLI(t, append(base, "-parallel", "1")...)
	parallel := runCLI(t, append(base, "-parallel", "4")...)
	// Line 1 embeds the shard count; equivalence holds for the rest.
	_, stail, _ := bytes.Cut(serial, []byte("\n"))
	_, ptail, _ := bytes.Cut(parallel, []byte("\n"))
	if !bytes.Equal(stail, ptail) {
		t.Errorf("cascading-outage output differs between -parallel 1 and 4 (%d vs %d bytes)",
			len(stail), len(ptail))
	}
}

// TestScenarioGoldens pins short-horizon output for every non-paper
// checked-in scenario, so spec or compiler drift is visible in review.
func TestScenarioGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs generated fleets")
	}
	for _, name := range []string{"10k-chaos", "cascading-outage", "cdn-flap"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			hours := "2"
			if name == "10k-chaos" {
				hours = "1"
			}
			got := runCLI(t, "-scenario", name, "-hours", hours, "-parallel", "2", "-artifacts", "headlines")
			path := filepath.Join("testdata", fmt.Sprintf("golden_scenario_%s.txt", name))
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (run with -update to regenerate)\ngot %d bytes, want %d bytes",
					path, len(got), len(want))
			}
		})
	}
}

// TestInputChecks requires bad flag values to fail before anything is
// printed: a non-positive -hours, a negative roster limit (which
// Spec.Topology would read as "all"), an unknown -mode, and a packet
// run past the engine's scale limit.
func TestInputChecks(t *testing.T) {
	for _, args := range [][]string{
		{"-hours", "0"},
		{"-hours", "-5", "-clients", "4", "-sites", "4"},
		{"-hours", "1", "-mode", "bogus"},
		{"-hours", "1", "-clients", "-3"},
		{"-hours", "1", "-sites", "-1"},
		{"-mode", "packet"},
	} {
		var stdout bytes.Buffer
		if err := run(args, &stdout); err == nil {
			t.Errorf("%v: no error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, stdout.String())
		}
	}
}
