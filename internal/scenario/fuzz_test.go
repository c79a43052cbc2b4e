package scenario

import (
	"encoding/json"
	"testing"

	"webfail/internal/simnet"
	"webfail/internal/workload"
	"webfail/scenarios"
)

// maxFuzzRoster caps the clients plus websites a fuzzed document may
// declare. Validate expands the roster, so a legal fleet of millions of
// clients would measure the fuzzer's memory, not the spec's checks.
const maxFuzzRoster = 2048

// declaredRoster sums the clients and websites a document declares,
// saturating at limit+1, without expanding anything. A document that
// does not decode leniently also counts as limit+1: its counts cannot
// be bounded, and Parse rejects it at the same field anyway.
func declaredRoster(data []byte, limit int) int {
	var doc struct {
		Clients []struct {
			Group   *struct{ Count int }
			Members []json.RawMessage
			Fleet   *struct{ Count int }
		}
		Websites []struct {
			List  []json.RawMessage
			Fleet *struct{ Count int }
		}
	}
	if json.Unmarshal(data, &doc) != nil {
		return limit + 1
	}
	n := 0
	add := func(k int) {
		if k > 0 {
			n = min(n+min(k, limit+1), limit+1)
		}
	}
	for _, b := range doc.Clients {
		if b.Group != nil {
			add(b.Group.Count)
		}
		add(len(b.Members))
		if b.Fleet != nil {
			add(b.Fleet.Count)
		}
	}
	for _, b := range doc.Websites {
		add(len(b.List))
		if b.Fleet != nil {
			add(b.Fleet.Count)
		}
	}
	return n
}

// FuzzScenario feeds scenario documents, seeded with every checked-in
// one, through the whole compile path. A document either fails Parse
// with an error, or it compiles to a topology, fault parameters and a
// fault timeline without an error or a panic: Validate is the only gate
// between a user's spec file and the engines.
func FuzzScenario(f *testing.F) {
	for _, name := range scenarios.Names() {
		b, _ := scenarios.Read(name)
		f.Add(b, int64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if declaredRoster(data, maxFuzzRoster) > maxFuzzRoster {
			t.Skip("declared roster above the fuzzing cap")
		}
		spec, err := Parse(data)
		if err != nil {
			return
		}
		topo, err := spec.Topology(0, 0)
		if err != nil {
			t.Fatalf("valid spec: Topology: %v", err)
		}
		params, err := spec.Params(seed, 0, simnet.FromHours(2))
		if err != nil {
			t.Fatalf("valid spec: Params: %v", err)
		}
		workload.BuildScenario(topo, params)
	})
}
