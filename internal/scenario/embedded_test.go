package scenario

import (
	"net/netip"
	"strings"
	"testing"

	"webfail/internal/simnet"
	"webfail/internal/workload"
	"webfail/scenarios"
)

// TestEmbeddedScenariosCompile guarantees every checked-in scenario
// parses, validates, compiles to a topology, and yields fault params —
// a broken spec file fails the build, not the first user who runs it.
func TestEmbeddedScenariosCompile(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("embedded scenarios = %v, want at least the four shipped ones", names)
	}
	for _, name := range names {
		spec, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if spec.Name != name {
			t.Errorf("%s: spec.Name = %q, want file name", name, spec.Name)
		}
		topo, err := spec.Topology(0, 0)
		if err != nil {
			t.Errorf("%s: topology: %v", name, err)
			continue
		}
		if len(topo.Clients) == 0 || len(topo.Websites) == 0 {
			t.Errorf("%s: empty topology %d/%d", name, len(topo.Clients), len(topo.Websites))
		}
		params, err := spec.Params(1, 0, simnet.FromHours(2))
		if err != nil {
			t.Errorf("%s: params: %v", name, err)
			continue
		}
		sc := workload.BuildScenario(topo, params)
		if sc.Timeline == nil {
			t.Errorf("%s: nil timeline", name)
		}
	}
}

// TestRosterAddressesDistinct extends workload's TestTopologyAddressing
// duplicate-address check to every checked-in scenario's compiled
// roster: no two clients share an address, and every replica address
// belongs to exactly one website and to no client, LDNS or proxy (the
// packet engine refuses a host address given twice).
func TestRosterAddressesDistinct(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := spec.Topology(0, 0)
		if err != nil {
			t.Fatalf("%s: topology: %v", name, err)
		}
		clients := map[netip.Addr]string{}
		endpoints := map[netip.Addr]bool{}
		for i := range topo.Clients {
			c := &topo.Clients[i]
			if other, dup := clients[c.Addr]; dup {
				t.Errorf("%s: clients %s and %s share address %v", name, other, c.Name, c.Addr)
			}
			clients[c.Addr] = c.Name
			endpoints[c.Addr], endpoints[c.LDNS] = true, true
			if c.Proxy.IsValid() {
				endpoints[c.Proxy] = true
			}
		}
		replicas := map[netip.Addr]string{}
		for i := range topo.Websites {
			w := &topo.Websites[i]
			for _, ra := range w.ReplicaAddrs {
				if other, dup := replicas[ra]; dup {
					t.Errorf("%s: replica address %v belongs to %s and %s", name, ra, other, w.Host)
				}
				replicas[ra] = w.Host
				if endpoints[ra] {
					t.Errorf("%s: %s replica address %v is also a client-side address", name, w.Host, ra)
				}
			}
		}
		if len(replicas) == 0 {
			t.Errorf("%s: no replica addresses", name)
		}
	}
}

// TestChaosScenarioScale pins the 10k-chaos contract: at least 10k
// generated clients, all four categories, ramped startup.
func TestChaosScenarioScale(t *testing.T) {
	spec, err := ByName("10k-chaos")
	if err != nil {
		t.Fatal(err)
	}
	cs, ws, err := spec.Roster()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) < 10000 {
		t.Errorf("10k-chaos clients = %d, want >= 10000", len(cs))
	}
	if len(ws) == 0 {
		t.Error("10k-chaos has no websites")
	}
	byCat := map[workload.Category]int{}
	offsets := map[int64]bool{}
	for _, c := range cs {
		byCat[c.Category]++
		offsets[int64(c.StartOffset)] = true
	}
	for _, cat := range []workload.Category{workload.PL, workload.DU, workload.CN, workload.BB} {
		if byCat[cat] == 0 {
			t.Errorf("10k-chaos has no %s clients", cat)
		}
	}
	// Wave startup with 3 waves => exactly 3 distinct offsets.
	if len(offsets) != 3 {
		t.Errorf("10k-chaos startup offsets = %d distinct, want 3 waves", len(offsets))
	}
}

// TestResolve covers the -scenario flag resolution order: empty means
// paper-default, names resolve from the embedded set, and paths fall
// back to the filesystem.
func TestResolve(t *testing.T) {
	spec, err := Resolve("")
	if err != nil || spec.Name != PaperDefault {
		t.Fatalf("Resolve(\"\") = %v, %v", spec, err)
	}
	spec, err = Resolve("cdn-flap")
	if err != nil || spec.Name != "cdn-flap" {
		t.Fatalf("Resolve(cdn-flap) = %v, %v", spec, err)
	}
	spec, err = Resolve("../../scenarios/cdn-flap.json")
	if err != nil || spec.Name != "cdn-flap" {
		t.Fatalf("Resolve(path) = %v, %v", spec, err)
	}
	if _, err = Resolve("no-such-scenario"); err == nil {
		t.Fatal("Resolve(no-such-scenario) succeeded")
	} else if !strings.Contains(err.Error(), "paper-default") {
		t.Errorf("error should list available scenarios, got: %v", err)
	}
}

// TestHashStability asserts the spec hash ignores JSON formatting but
// tracks semantic changes.
func TestHashStability(t *testing.T) {
	a, err := ByName(PaperDefault)
	if err != nil {
		t.Fatal(err)
	}
	b := buildPaperSpec()
	if a.Hash() != b.Hash() {
		t.Error("hash differs between embedded file and generator (formatting should not matter)")
	}
	if len(a.ShortHash()) != 12 {
		t.Errorf("short hash = %q", a.ShortHash())
	}
	mutated := buildPaperSpec()
	mutated.Faults.BGPRate++
	if mutated.Hash() == b.Hash() {
		t.Error("hash did not change after a semantic edit")
	}
}

// TestParseStrict requires a key the spec does not define to fail by
// name instead of silently keeping its zero value: a misspelled knob in
// a shipped scenario, and the website key redirectTo, which no engine
// ever read. Data after the document stays an error; trailing
// whitespace does not.
func TestParseStrict(t *testing.T) {
	paper, _ := scenarios.Read(PaperDefault)
	flap, _ := scenarios.Read("cdn-flap")
	for _, tc := range []struct {
		name, doc, wantErr string
	}{
		{"misspelled knob", strings.Replace(string(flap), `"transientConnFail"`, `"transientConnFial"`, 1), `unknown field "transientConnFial"`},
		{"redirectTo", strings.Replace(string(paper), `"host":`, `"redirectTo": "www.example.com", "host":`, 1), `unknown field "redirectTo"`},
		{"trailing document", string(paper) + "{}", "after the spec document"},
		{"trailing garbage", string(paper) + "}", "scenario: parse"},
		{"trailing whitespace", string(paper) + "\n\t \n", ""},
	} {
		_, err := Parse([]byte(tc.doc))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
