package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"webfail/internal/faults"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

var update = flag.Bool("update", false, "rewrite scenarios/paper-default.json from the reference tables")

func paperJSON(t *testing.T) []byte {
	t.Helper()
	spec := buildPaperSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("reference paper spec invalid: %v", err)
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

// TestPaperDefaultJSONUpToDate pins the checked-in
// scenarios/paper-default.json to the reference tables in
// paperref_test.go. Run with -update after deliberately changing the
// reference data.
func TestPaperDefaultJSONUpToDate(t *testing.T) {
	want := paperJSON(t)
	path := filepath.Join("..", "..", "scenarios", "paper-default.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scenarios/paper-default.json is stale; regenerate with: go test ./internal/scenario -run PaperDefaultJSONUpToDate -update")
	}
}

// TestPaperSpecRoundTrip checks that the embedded spec parses back to
// exactly the structure the generator produced — nothing is lost or
// reinterpreted through the JSON encoding.
func TestPaperSpecRoundTrip(t *testing.T) {
	parsed, err := Parse(paperJSON(t))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(parsed, buildPaperSpec()) {
		t.Error("spec does not round-trip through JSON")
	}
	if !reflect.DeepEqual(Paper(), buildPaperSpec()) {
		t.Error("embedded paper-default differs from the reference generator")
	}
}

// TestPaperRosterMatchesReference asserts the compiled roster is
// structurally identical to the pre-refactor hard-coded tables.
func TestPaperRosterMatchesReference(t *testing.T) {
	cs, ws, err := Paper().Roster()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs, refClients()) {
		t.Error("compiled client roster differs from reference tables")
	}
	if !reflect.DeepEqual(ws, refWebsites()) {
		t.Error("compiled website roster differs from reference tables")
	}
}

// TestPaperParamsMatchesReference asserts the compiled fault calibration
// is identical to the pre-refactor DefaultScenarioParams.
func TestPaperParamsMatchesReference(t *testing.T) {
	got, err := Paper().Params(7, 0, simnet.FromHours(744))
	if err != nil {
		t.Fatal(err)
	}
	want := refParams(7, 0, simnet.FromHours(744))
	if !reflect.DeepEqual(got, want) {
		t.Error("compiled params differ from reference DefaultScenarioParams")
	}
}

// TestPaperTimelineMatchesReference is the end-to-end determinism
// contract: compiling the spec and building the fault timeline yields
// exactly the world the hard-coded tables produced.
func TestPaperTimelineMatchesReference(t *testing.T) {
	refTopo := workload.NewRosterTopology(refClients(), refWebsites())
	refSc := workload.BuildScenario(refTopo, refParams(1, 0, simnet.FromHours(744)))

	topo := PaperTopology()
	sc := workload.BuildScenario(topo, PaperParams(1, 0, simnet.FromHours(744)))

	if sc.Timeline.Len() != refSc.Timeline.Len() {
		t.Fatalf("timeline lengths differ: %d vs %d", sc.Timeline.Len(), refSc.Timeline.Len())
	}
	if !reflect.DeepEqual(sc, refSc) {
		t.Error("compiled scenario differs from reference scenario")
	}
	if !reflect.DeepEqual(topo, refTopo) {
		t.Error("compiled topology differs from reference topology")
	}
}

// The remaining tests port the paper-roster statistics that used to be
// asserted against the hard-coded workload tables.

func TestPaperClientRoster(t *testing.T) {
	cs, _, err := Paper().Roster()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 134 {
		t.Fatalf("clients = %d, want 134", len(cs))
	}
	byCat := map[workload.Category]int{}
	plSiteSet := map[string]bool{}
	names := map[string]bool{}
	for _, c := range cs {
		byCat[c.Category]++
		if c.Category == workload.PL {
			plSiteSet[c.Site] = true
		}
		if names[c.Name] {
			t.Errorf("duplicate client name %q", c.Name)
		}
		names[c.Name] = true
	}
	if byCat[workload.PL] != 95 || byCat[workload.DU] != 26 || byCat[workload.CN] != 6 || byCat[workload.BB] != 7 {
		t.Errorf("category counts = %v", byCat)
	}
	if len(plSiteSet) != 64 {
		t.Errorf("PL sites = %d, want 64", len(plSiteSet))
	}
}

func TestPaperWebsiteRoster(t *testing.T) {
	_, ws, err := Paper().Roster()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 80 {
		t.Fatalf("websites = %d, want 80", len(ws))
	}
	byGroup := map[workload.SiteGroup]int{}
	replicaCensus := map[string]int{} // "0", "1", "multi"
	hosts := map[string]bool{}
	for _, w := range ws {
		byGroup[w.Group]++
		switch {
		case w.Replicas == 0:
			replicaCensus["0"]++
		case w.Replicas == 1:
			replicaCensus["1"]++
		default:
			replicaCensus["multi"]++
		}
		if hosts[w.Host] {
			t.Errorf("duplicate host %q", w.Host)
		}
		hosts[w.Host] = true
	}
	wantGroups := map[workload.SiteGroup]int{
		workload.USEdu: 8, workload.USPopular: 22, workload.USMisc: 15,
		workload.IntlEdu: 10, workload.IntlPopular: 15, workload.IntlMisc: 10,
	}
	for g, n := range wantGroups {
		if byGroup[g] != n {
			t.Errorf("group %s = %d, want %d", g, byGroup[g], n)
		}
	}
	// Section 4.5 census: 6 CDN (zero replicas), 42 single, 32 multi.
	if replicaCensus["0"] != 6 || replicaCensus["1"] != 42 || replicaCensus["multi"] != 32 {
		t.Errorf("replica census = %v, want 6/42/32", replicaCensus)
	}
	// The named sites from the analyses must exist.
	for _, h := range []string{"www.sina.com.cn", "www.iitb.ac.in", "www.sohu.com",
		"www.brazzil.com", "www.espn.go.com", "www.royal.gov.uk", "www.mp3.com",
		"www.msn.com.tw", "www.craigslist.org"} {
		if !hosts[h] {
			t.Errorf("missing host %q", h)
		}
	}
}

func TestPaperCoLocatedPairs(t *testing.T) {
	topo := PaperTopology()
	pairs := topo.CoLocatedPairs()
	// Section 4.4.6: 35 pairs (33 PL + 2 BB); CN clients excluded.
	if len(pairs) != 35 {
		t.Fatalf("co-located pairs = %d, want 35", len(pairs))
	}
	for _, p := range pairs {
		a, b := topo.ClientByName(p[0]), topo.ClientByName(p[1])
		if a.Site != b.Site {
			t.Errorf("pair %v not co-located", p)
		}
		if a.Category == workload.CN {
			t.Errorf("CN client in pair %v", p)
		}
	}
}

func TestPaperScaledTopology(t *testing.T) {
	topo := PaperScaledTopology(10, 5)
	if len(topo.Clients) != 10 || len(topo.Websites) != 5 {
		t.Fatalf("scaled = %d/%d", len(topo.Clients), len(topo.Websites))
	}
	full := PaperScaledTopology(0, 0)
	if len(full.Clients) != 134 || len(full.Websites) != 80 {
		t.Fatalf("unscaled = %d/%d", len(full.Clients), len(full.Websites))
	}
}

func TestPaperScenarioBuild(t *testing.T) {
	topo := PaperTopology()
	sc := workload.BuildScenario(topo, PaperParams(1, 0, simnet.FromHours(744)))
	if sc.Timeline.Len() == 0 {
		t.Fatal("empty timeline")
	}
	// The 38 permanent client-server pairs of Section 4.4.2.
	pairs := sc.PermanentClientPairs(topo)
	if len(pairs) != 38 {
		t.Fatalf("permanent client pairs = %d, want 38", len(pairs))
	}
	counts := map[string]int{}
	for _, p := range pairs {
		counts[p[1]]++
	}
	if counts["www.msn.com.tw"] != 10 || counts["www.sina.com.cn"] != 9 || counts["www.sohu.com"] != 8 {
		t.Errorf("per-site pair counts = %v", counts)
	}
	// Figure events are placed.
	howard := topo.ClientByName("planetlab1.howard.edu")
	if howard == nil {
		t.Fatal("howard client missing")
	}
	eps := sc.Timeline.Episodes(faults.Entity("prefix:" + howard.Prefix.String()))
	foundFig5 := false
	for _, ep := range eps {
		if ep.Kind == faults.BGPInstability && ep.Start == simnet.FromUnix(1105632000) {
			foundFig5 = true
		}
	}
	if !foundFig5 {
		t.Error("Figure 5 BGP event not placed")
	}
	// Special-server chronic faults exist.
	if len(sc.Timeline.Episodes("www:www.sina.com.cn")) == 0 {
		t.Error("sina chronic episodes missing")
	}
	if len(sc.Timeline.Episodes("site:pittsburgh.intel-research.net")) == 0 {
		t.Error("intel chronic flakiness missing")
	}
}

func TestPaperChronicCoverage(t *testing.T) {
	topo := PaperTopology()
	sc := workload.BuildScenario(topo, PaperParams(3, 0, simnet.FromHours(744)))
	// sina.com.cn should be under a chronic episode ~97% of the month.
	id := sc.Timeline.Lookup("www:www.sina.com.cn")
	var buf []faults.Episode
	covered := 0
	for h := int64(0); h < 744; h++ {
		at := simnet.FromHours(h).Add(30 * time.Minute)
		buf = sc.Timeline.ActiveAnyIntoID(id, at, buf[:0])
		for _, ep := range buf {
			if ep.Kind == faults.ServerOutage {
				covered++
				break
			}
		}
	}
	if covered < 650 {
		t.Errorf("sina chronic coverage = %d/744 hours, want > 650", covered)
	}
}
