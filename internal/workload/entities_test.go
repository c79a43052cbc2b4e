package workload_test

import (
	"slices"
	"testing"
	"time"

	"webfail/internal/faults"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// checkEntityTable requires every handle of sc.EntityIDs(topo) to equal a
// Timeline.Lookup of the entity's name, spelled here, field by field. It
// returns how many handles of each field resolved to an entity.
func checkEntityTable(t *testing.T, name string, topo *workload.Topology, sc *workload.Scenario) map[string]int {
	t.Helper()
	tl := sc.Timeline
	ids := sc.EntityIDs(topo)
	resolved := map[string]int{}
	check := func(field string, i, k int, got faults.EntityID, entity string) {
		if want := tl.Lookup(faults.Entity(entity)); got != want {
			t.Errorf("%s: %s[%d][%d] = %d, Lookup(%q) = %d", name, field, i, k, got, entity, want)
		}
		if got != faults.NoEntity {
			resolved[field]++
		}
	}
	if len(ids.Client) != len(topo.Clients) || len(ids.Site) != len(topo.Clients) || len(ids.ClientPrefix) != len(topo.Clients) {
		t.Fatalf("%s: client fields sized %d/%d/%d for %d clients", name, len(ids.Client), len(ids.Site), len(ids.ClientPrefix), len(topo.Clients))
	}
	for i := range topo.Clients {
		c := &topo.Clients[i]
		check("Client", i, 0, ids.Client[i], "client:"+c.Name)
		check("Site", i, 0, ids.Site[i], "site:"+c.Site)
		check("ClientPrefix", i, 0, ids.ClientPrefix[i], "prefix:"+c.Prefix.String())
	}
	if len(ids.Website) != len(topo.Websites) {
		t.Fatalf("%s: %d website handles for %d websites", name, len(ids.Website), len(topo.Websites))
	}
	for j := range topo.Websites {
		w := &topo.Websites[j]
		check("Website", j, 0, ids.Website[j], "www:"+w.Host)
		if len(ids.Prefixes[j]) != len(w.Prefixes) || len(ids.Replica[j]) != len(w.ReplicaAddrs) || len(ids.ReplicaPrefix[j]) != len(w.ReplicaAddrs) {
			t.Fatalf("%s: website %d fields sized %d/%d/%d", name, j, len(ids.Prefixes[j]), len(ids.Replica[j]), len(ids.ReplicaPrefix[j]))
		}
		for k, p := range w.Prefixes {
			check("Prefixes", j, k, ids.Prefixes[j][k], "prefix:"+p.String())
		}
		for k, a := range w.ReplicaAddrs {
			check("Replica", j, k, ids.Replica[j][k], "replica:"+a.String())
			holder := "no prefix holds " + a.String()
			for _, p := range w.Prefixes {
				if p.Contains(a) {
					holder = "prefix:" + p.String()
				}
			}
			check("ReplicaPrefix", j, k, ids.ReplicaPrefix[j][k], holder)
		}
	}
	blocked := map[[2]string]bool{}
	for _, pp := range sc.PermanentPairs {
		blocked[pp] = true
	}
	for i := range topo.Clients {
		c := &topo.Clients[i]
		for j := range topo.Websites {
			host := topo.Websites[j].Host
			got := ids.Pair(i, j)
			if blocked[[2]string{c.Site, host}] {
				check("Pair", i, j, got, "pair:"+c.Site+"|"+host)
			} else if got != faults.NoEntity {
				t.Errorf("%s: Pair(%d, %d) = %d for a pair that is not blocked", name, i, j, got)
			}
		}
	}
	return resolved
}

// TestEntityTableMatchesLookup holds the entity table to per-name
// Timeline.Lookup calls on every shipped scenario, and on a timeline
// swapped in after BuildScenario: the table must resolve against the
// scenario's current timeline. The swapped timeline puts an episode on
// one entity of every field, so each field is checked against a resolved
// handle, and pins the order of Touched.
func TestEntityTableMatchesLookup(t *testing.T) {
	for _, name := range scenario.Names() {
		spec, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := spec.Topology(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		params, err := spec.Params(1, 0, simnet.FromHours(24))
		if err != nil {
			t.Fatal(err)
		}
		checkEntityTable(t, name, topo, workload.BuildScenario(topo, params))
	}

	topo := workload.NewRosterTopology([]workload.Client{
		{Name: "pl1.alpha.edu", Category: workload.PL, Site: "alpha.edu", Region: "us-east", RoundsPerHour: 4},
		{Name: "pl2.alpha.edu", Category: workload.PL, Site: "alpha.edu", Region: "us-east", RoundsPerHour: 4},
		{Name: "pl1.beta.edu", Category: workload.PL, Site: "beta.edu", Region: "us-west", RoundsPerHour: 4},
	}, []workload.Website{
		{Host: "www.cdn.example", Group: workload.USPopular, Region: "us-east", Replicas: 0, IndexSize: 10240},
		{Host: "www.spread.example", Group: workload.IntlPopular, Region: "europe", Replicas: 3, SpreadReplicas: true, IndexSize: 10240},
	})
	end := simnet.FromHours(24)
	sc := workload.BuildScenario(topo, workload.ScenarioParams{
		Seed: 1, End: end,
		Permanent: []workload.PermanentPairSpec{{Site: "alpha.edu", Host: "www.spread.example"}},
	})
	pl1, spread := &topo.Clients[0], &topo.Websites[1]
	names := []string{
		"client:" + pl1.Name,
		"site:" + pl1.Site,
		"prefix:" + pl1.Prefix.String(),
		"www:" + spread.Host,
		"replica:" + spread.ReplicaAddrs[0].String(),
		"replica:" + spread.ReplicaAddrs[1].String(),
		"prefix:" + spread.Prefixes[1].String(),
		"pair:alpha.edu|www.spread.example",
	}
	tl := faults.NewTimeline()
	for _, n := range names {
		tl.Add(faults.Episode{Entity: faults.Entity(n), Kind: faults.PathOutage, Start: simnet.FromHours(1), Duration: time.Hour, Severity: 1})
	}
	tl.Freeze()
	sc.Timeline = tl

	resolved := checkEntityTable(t, "swapped timeline", topo, sc)
	for _, field := range []string{"Client", "Site", "ClientPrefix", "Website", "Replica", "ReplicaPrefix", "Prefixes", "Pair"} {
		if resolved[field] == 0 {
			t.Errorf("swapped timeline: no %s handle resolved", field)
		}
	}
	var want []faults.EntityID
	for _, n := range names {
		want = append(want, tl.Lookup(faults.Entity(n)))
	}
	ids := sc.EntityIDs(topo)
	if got := ids.Touched(0, 1); !slices.Equal(got, want) {
		t.Errorf("Touched(0, 1) = %v, want %v (the order of %v)", got, want, names)
	}
	// pl1.beta.edu shares nothing with pl1.alpha.edu but the website.
	if got := ids.Touched(2, 1); !slices.Equal(got, want[3:7]) {
		t.Errorf("Touched(2, 1) = %v, want %v", got, want[3:7])
	}
	if got := ids.Touched(2, 0); len(got) != 0 {
		t.Errorf("Touched(2, 0) = %v, want none", got)
	}
}
