package scenario

import (
	"fmt"
	"strings"
	"testing"

	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// baseSpec returns a small valid spec that the rejection tests mutate.
func baseSpec() *Spec {
	proc := func(kind string, rate float64) ProcessSpec {
		return ProcessSpec{Kind: kind, RatePerMonth: rate,
			MeanDuration: Duration(10 * 60 * 1e9), MinDuration: Duration(60 * 1e9),
			MaxDuration: Duration(3600 * 1e9), SeverityLow: 0.8, SeverityHigh: 1}
	}
	bb := func(kind string, rate float64) map[string]ProcessSpec {
		return map[string]ProcessSpec{"BB": proc(kind, rate)}
	}
	return &Spec{
		Name: "test",
		Clients: []ClientBlock{{Fleet: &ClientFleet{
			Count:      8,
			NameFormat: "c%d",
			SiteFormat: "s%d",
			Templates:  []ClientTemplate{{Weight: 1, Category: "BB", RoundsPerHour: 1}},
			GroupSizes: []WeightedInt{{Value: 4, Weight: 1}},
			Regions:    []WeightedValue{{Value: "us-west", Weight: 1}},
		}}},
		Websites: []WebsiteBlock{{List: []WebsiteEntry{
			{Host: "www.a.example", Group: "US-MISC", Region: "us-west", Replicas: 1},
			{Host: "www.b.example", Group: "US-MISC", Region: "us-west", Replicas: 0},
		}}},
		Faults: FaultSpec{
			MachineOff:     bb("client-machine-off", 1),
			SiteConn:       bb("client-connectivity", 1),
			ClientConn:     bb("client-connectivity", 1),
			LDNSOutage:     bb("ldns-outage", 1),
			LDNSFlaky:      bb("ldns-outage", 1),
			WANOutage:      bb("path-outage", 1),
			SiteFactorMean: 1.5,
			SiteOutage:     proc("server-outage", 1),
			ReplicaOutage:  proc("server-outage", 1),
			SiteOverload:   proc("server-overload", 1),
			AuthDNSOutage:  proc("authdns-outage", 1),
			HTTPError:      proc("server-http-error", 0.2),
			BGPRate:        1, BGPGlobalFraction: 0.7,
		},
	}
}

func TestBaseSpecValid(t *testing.T) {
	if err := baseSpec().Validate(); err != nil {
		t.Fatalf("base spec should validate: %v", err)
	}
}

// TestValidateRejects drives each malformed-spec case through Validate
// and asserts a field-precise error.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // substring that must appear (the field path)
	}{
		{"weights-dont-sum", func(s *Spec) {
			s.Clients[0].Fleet.Templates = []ClientTemplate{
				{Weight: 0.5, Category: "BB", RoundsPerHour: 1},
				{Weight: 0.3, Category: "DU", RoundsPerHour: 1},
			}
		}, "clients[0].fleet.templates: weights sum to 0.8"},
		{"negative-weight", func(s *Spec) {
			s.Clients[0].Fleet.Regions = []WeightedValue{
				{Value: "us-west", Weight: 1.5}, {Value: "us-east", Weight: -0.5},
			}
		}, "clients[0].fleet.regions[1].weight"},
		{"unknown-category", func(s *Spec) {
			s.Clients[0].Fleet.Templates[0].Category = "XX"
		}, "clients[0].fleet.templates[0].category"},
		{"unknown-fault-kind", func(s *Spec) {
			p := s.Faults.SiteOutage
			p.Kind = "server-meltdown"
			s.Faults.SiteOutage = p
		}, "faults.siteOutage.kind"},
		{"unknown-map-category", func(s *Spec) {
			s.Faults.MachineOff["ZZ"] = s.Faults.MachineOff["BB"]
		}, "faults.machineOff: unknown category \"ZZ\""},
		{"missing-category-profile", func(s *Spec) {
			s.Clients[0].Fleet.Templates[0].Category = "PL"
		}, "missing profile for category \"PL\""},
		{"overlapping-colocation-groups", func(s *Spec) {
			s.Clients = append(s.Clients, ClientBlock{Group: &ClientGroup{
				Site: "s0", Region: "us-west", Category: "BB", Count: 2,
				NameFormat: "x%d", RoundsPerHour: 1,
			}})
		}, "co-location group \"s0\" overlaps clients[0]"},
		{"duplicate-client-name", func(s *Spec) {
			s.Clients = append(s.Clients, ClientBlock{Members: []ClientMember{
				{Name: "c3", Site: "t", Region: "us-west", Category: "BB", RoundsPerHour: 1},
			}})
		}, "duplicate client name \"c3\""},
		{"replicas-exceed-capacity", func(s *Spec) {
			s.Websites[0].List[0].Replicas = workload.MaxReplicas + 1
		}, "websites[0].list[0].replicas"},
		{"site-exceeds-client-capacity", func(s *Spec) {
			s.Clients[0].Fleet.Count = workload.MaxClientsPerSite + 1
			s.Clients[0].Fleet.GroupSizes = nil
			s.Clients[0].Fleet.SiteFormat = "x%d"
			// All clients on one site via a group instead.
			s.Clients[0] = ClientBlock{Group: &ClientGroup{
				Site: "big", Region: "us-west", Category: "BB",
				Count: workload.MaxClientsPerSite + 1, NameFormat: "g%d", RoundsPerHour: 1,
			}}
		}, "exceeds 246 clients"},
		{"too-many-sites", func(s *Spec) {
			s.Clients[0].Fleet.Count = workload.MaxClientSites + 1
			s.Clients[0].Fleet.GroupSizes = nil // singleton sites
		}, "exceed the address plan"},
		{"huge-fleet-count", func(s *Spec) {
			s.Clients[0].Fleet.Count = 400_000_000
		}, "clients[0].fleet.count: 400000000 clients would exceed the address plan's"},
		{"huge-group-count", func(s *Spec) {
			s.Clients[0] = ClientBlock{Group: &ClientGroup{
				Site: "big", Region: "us-west", Category: "BB",
				Count: 2_000_000_000, NameFormat: "g%d", RoundsPerHour: 1,
			}}
		}, "clients[0].group.count: 2000000000 clients would exceed the address plan's"},
		{"huge-website-fleet-count", func(s *Spec) {
			s.Websites[0] = WebsiteBlock{Fleet: &WebsiteFleet{
				Count: 300_000_000, HostFormat: "www.w%d.example",
				Templates: []WebsiteTemplate{{Weight: 1, Group: "US-MISC"}},
				Regions:   []WeightedValue{{Value: "us-west", Weight: 1}},
			}}
		}, "websites[0].fleet.count: 300000000 websites would exceed the address plan's"},
		{"roster-total-over-plan", func(s *Spec) {
			s.Clients[0].Fleet.Count = workload.MaxClientSites*workload.MaxClientsPerSite - 4
			s.Clients = append(s.Clients, ClientBlock{Group: &ClientGroup{
				Site: "late", Region: "us-west", Category: "BB", Count: 8,
				NameFormat: "x%d", RoundsPerHour: 1,
			}})
		}, "clients[1].group.count: 8 clients would exceed the address plan's 16121856 (16121852 declared before this block)"},
		{"bad-name-format", func(s *Spec) {
			s.Clients[0].Fleet.NameFormat = "c%s"
		}, "clients[0].fleet.nameFormat"},
		{"bad-startup-pattern", func(s *Spec) {
			s.Clients[0].Fleet.Startup = &StartupSpec{Pattern: "bigbang", Window: Duration(3600 * 1e9)}
		}, "clients[0].fleet.startup.pattern"},
		{"startup-window-missing", func(s *Spec) {
			s.Clients[0].Fleet.Startup = &StartupSpec{Pattern: StartupLinear}
		}, "clients[0].fleet.startup.window"},
		{"unknown-website-group", func(s *Spec) {
			s.Websites[0].List[0].Group = "US-WEIRD"
		}, "websites[0].list[0].group"},
		{"duplicate-host", func(s *Spec) {
			s.Websites[0].List[1].Host = "www.a.example"
		}, "duplicate host \"www.a.example\""},
		{"spread-replicas-in-another-websites-prefix", func(s *Spec) {
			// Website 0's second /24 is the first /24 of website
			// SpreadOffset, the 2,049th.
			list := []WebsiteEntry{{Host: "www.w0.example", Group: "US-MISC", Region: "us-west", Replicas: 2, SpreadReplicas: true}}
			for j := 1; j <= workload.SpreadOffset; j++ {
				list = append(list, WebsiteEntry{Host: fmt.Sprintf("www.w%d.example", j), Group: "US-MISC", Region: "us-west", Replicas: 2})
			}
			s.Websites = []WebsiteBlock{{List: list}}
		}, "spread-replica site \"www.w0.example\" at index 0 would put its later replicas in the /24 of \"www.w2048.example\" at index 2048"},
		{"two-block-kinds", func(s *Spec) {
			s.Clients[0].Members = []ClientMember{
				{Name: "m", Site: "t", Region: "us-west", Category: "BB", RoundsPerHour: 1},
			}
		}, "clients[0]: exactly one of group, members, fleet"},
		{"special-bad-mode", func(s *Spec) {
			s.Faults.Specials = []SpecialSpec{{
				Host: "www.a.example", ChronicCover: 0.5,
				ChronicSeverity: [2]float64{0.1, 0.3},
				ChronicKind:     "server-outage", ChronicMode: "hung",
			}}
		}, "faults.specials[0].chronicMode"},
		{"chronic-cover-out-of-range", func(s *Spec) {
			s.Faults.ChronicSites = []ChronicSpec{{Name: "s0", Cover: 1.2, Severity: [2]float64{0.1, 0.3}}}
		}, "faults.chronicSites[0].cover"},
		{"pinned-bgp-bad-mode", func(s *Spec) {
			s.Faults.PinnedBGP = []PinnedBGPSpec{{
				ClientSubstr: "c0", AtUnix: 1104537600, Duration: Duration(60 * 1e9),
				Severity: 1, Mode: "sideways",
			}}
		}, "faults.pinnedBGP[0].mode"},
		{"permanent-bad-mode", func(s *Spec) {
			s.Faults.Permanent = []PermanentSpec{{Site: "s0", Host: "www.a.example", Mode: "sometimes"}}
		}, "faults.permanent[0].mode"},
		{"transient-out-of-range", func(s *Spec) {
			s.Faults.TransientConnFail = 1.0
		}, "faults.transientConnFail"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := baseSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("spec validated, want rejection")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), `scenario "test"`) {
				t.Errorf("error %q does not name the scenario", err)
			}
		})
	}
}

// TestValidatedSpecsCompile is the property check behind Validate's
// guarantee: any spec that validates also compiles — across a sweep of
// structurally diverse generated specs, Roster/Topology/Params never
// fail after Validate succeeds.
func TestValidatedSpecsCompile(t *testing.T) {
	patterns := []string{StartupInstant, StartupLinear, StartupExponential, StartupWave}
	cats := []string{"PL", "DU", "CN", "BB"}
	for v := 0; v < 60; v++ {
		s := baseSpec()
		s.Name = fmt.Sprintf("gen-%d", v)
		// Vary the fleet shape deterministically with v.
		f := s.Clients[0].Fleet
		f.Count = 1 + v*7%300
		nt := 1 + v%4
		f.Templates = nil
		for i := 0; i < nt; i++ {
			f.Templates = append(f.Templates, ClientTemplate{
				Weight:        1.0 / float64(nt),
				Category:      cats[(v+i)%len(cats)],
				RoundsPerHour: 0.25 * float64(1+i),
				Proxied:       (v+i)%3 == 0,
			})
		}
		f.GroupSizes = []WeightedInt{
			{Value: 1 + v%5, Weight: 0.5},
			{Value: 2 + v%7, Weight: 0.5},
		}
		if v%2 == 0 {
			f.Startup = &StartupSpec{
				Pattern: patterns[v/2%len(patterns)],
				Window:  Duration(int64(v+1) * 60 * 1e9),
				Waves:   v % 6,
			}
			if f.Startup.Pattern == StartupInstant {
				f.Startup.Window = 0
			}
		}
		// Cover every category the fleet can produce.
		for _, m := range []map[string]ProcessSpec{
			s.Faults.MachineOff, s.Faults.SiteConn, s.Faults.ClientConn,
			s.Faults.LDNSOutage, s.Faults.LDNSFlaky, s.Faults.WANOutage,
		} {
			for _, c := range cats {
				m[c] = m["BB"]
			}
		}
		// Alternate website shapes.
		if v%3 == 0 {
			s.Websites = []WebsiteBlock{{Fleet: &WebsiteFleet{
				Count:      1 + v%50,
				HostFormat: "www.g%d.example",
				Templates: []WebsiteTemplate{
					{Weight: 0.5, Group: "US-MISC", Replicas: v % 5},
					{Weight: 0.5, Group: "INTL-MISC", Replicas: 1 + v%3, SpreadReplicas: v%2 == 0},
				},
				Regions: []WeightedValue{{Value: "us-west", Weight: 1}},
			}}}
		}

		if err := s.Validate(); err != nil {
			t.Fatalf("v=%d: generated spec failed validation (generator bug): %v", v, err)
		}
		topo, err := s.Topology(0, 0)
		if err != nil {
			t.Fatalf("v=%d: validated spec failed to compile topology: %v", v, err)
		}
		if len(topo.Clients) != f.Count {
			t.Fatalf("v=%d: compiled %d clients, want %d", v, len(topo.Clients), f.Count)
		}
		replicaOwners(t, s.Name, topo)
		if _, err := s.Params(int64(v), 0, simnet.FromHours(1)); err != nil {
			t.Fatalf("v=%d: validated spec failed to compile params: %v", v, err)
		}
	}
}
