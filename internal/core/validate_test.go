package core

import (
	"reflect"
	"testing"
	"time"

	"webfail/internal/faults"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// validateAttributionRef is the string-keyed ground-truth join that
// ValidateAttribution replaced: it builds each entity name and looks it
// up for every classified failure in tags. It is kept as the reference
// the ID-based join must equal.
func validateAttributionRef(a *Analysis, tags []taggedFailure, sc *workload.Scenario) *GroundTruthReport {
	rep := &GroundTruthReport{Confusion: map[Blame]map[Blame]int64{}}
	tl := sc.Timeline

	for _, tf := range tags {
		c := &a.Topo.Clients[tf.Client]
		w := &a.Topo.Websites[tf.Site]
		// Bin midpoint as representative instant.
		atTime := binMid(a, int(tf.Hour))

		serverTruth := refActiveAnyKind(tl, faults.Entity("www:"+w.Host), atTime,
			faults.ServerOutage, faults.ServerOverload)
		if !serverTruth {
			for _, ra := range w.ReplicaAddrs {
				if tl.ActiveID(tl.Lookup(faults.Entity("replica:"+ra.String())), faults.ServerOutage, atTime) != nil {
					serverTruth = true
					break
				}
			}
		}
		if !serverTruth {
			for _, p := range w.Prefixes {
				if refActiveAnyKind(tl, faults.Entity("prefix:"+p.String()), atTime, faults.BGPInstability, faults.PathOutage) {
					serverTruth = true
					break
				}
			}
		}

		clientTruth := refActiveAnyKind(tl, faults.Entity("site:"+c.Site), atTime,
			faults.ClientConnectivity, faults.LDNSOutage) ||
			refActiveAnyKind(tl, faults.Entity("client:"+c.Name), atTime, faults.ClientConnectivity) ||
			refActiveAnyKind(tl, faults.Entity("prefix:"+c.Prefix.String()), atTime,
				faults.BGPInstability, faults.PathOutage)

		var truth Blame
		switch {
		case serverTruth && clientTruth:
			truth = BlameBoth
		case serverTruth:
			truth = BlameServer
		case clientTruth:
			truth = BlameClient
		default:
			truth = BlameOther
		}
		if rep.Confusion[tf.Blame] == nil {
			rep.Confusion[tf.Blame] = map[Blame]int64{}
		}
		rep.Confusion[tf.Blame][truth]++
		rep.Total++
	}

	// Precision/recall treating "both" as agreeing with either side.
	sums := func(b Blame) (attributed, truthTotal, correct int64) {
		for attr, row := range rep.Confusion {
			for truth, n := range row {
				attrMatch := attr == b || attr == BlameBoth
				truthMatch := truth == b || truth == BlameBoth
				if attrMatch {
					attributed += n
					if truthMatch {
						correct += n
					}
				}
				if truthMatch {
					truthTotal += n
				}
			}
		}
		return
	}
	if attr, truthTotal, correct := sums(BlameServer); attr > 0 && truthTotal > 0 {
		rep.ServerPrecision = float64(correct) / float64(attr)
		rep.ServerRecall = refRecallOf(rep, BlameServer, truthTotal)
	}
	if attr, truthTotal, correct := sums(BlameClient); attr > 0 && truthTotal > 0 {
		rep.ClientPrecision = float64(correct) / float64(attr)
		rep.ClientRecall = refRecallOf(rep, BlameClient, truthTotal)
	}
	return rep
}

// refRecallOf counts ground-truth-b failures that were attributed b (or
// both), over all ground-truth-b failures.
func refRecallOf(rep *GroundTruthReport, b Blame, truthTotal int64) float64 {
	var correct int64
	for attr, row := range rep.Confusion {
		for truth, n := range row {
			if (truth == b || truth == BlameBoth) && (attr == b || attr == BlameBoth) {
				correct += n
			}
		}
	}
	if truthTotal == 0 {
		return 0
	}
	return float64(correct) / float64(truthTotal)
}

// refActiveAnyKind reports whether an episode of any of kinds covers at
// for e, resolving the entity name on every call.
func refActiveAnyKind(tl *faults.Timeline, e faults.Entity, at simnet.Time, kinds ...faults.Kind) bool {
	id := tl.Lookup(e)
	for _, k := range kinds {
		if tl.ActiveID(id, k, at) != nil {
			return true
		}
	}
	return false
}

// scenarioAnalysis runs a shipped scenario, cut to its first nClients
// clients and nSites websites, in fast mode over [0, hours) into an
// analysis with the given episode bin.
func scenarioAnalysis(t *testing.T, name string, nClients, nSites int, hours int64, bin time.Duration) (*Analysis, *workload.Scenario) {
	t.Helper()
	spec, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := spec.Topology(nClients, nSites)
	if err != nil {
		t.Fatal(err)
	}
	end := simnet.FromHours(hours)
	params, err := spec.Params(2005, 0, end)
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.BuildScenario(topo, params)
	a := NewAnalysisOpts(topo, 0, end, Options{Bin: bin})
	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	if err := measure.Run(cfg, a.Add); err != nil {
		t.Fatal(err)
	}
	return a, sc
}

// TestValidateAttributionMatchesReference requires the ID-based
// ground-truth join to produce exactly the string-keyed reference's
// report — confusion matrix, total, precision and recall — on every
// shipped scenario at both thresholds Table 5 uses, and on 15-minute
// bins, where the server-side memo has four cells per hour. It also
// requires the join's allocations to be independent of the number of
// classified failures.
func TestValidateAttributionMatchesReference(t *testing.T) {
	type run struct {
		name           string
		scenario       string
		clients, sites int
		hours          int64
		bin            time.Duration
	}
	runs := []run{{name: "paper-default-15m-bins", scenario: "paper-default", hours: 6, bin: 15 * time.Minute}}
	for _, name := range scenario.Names() {
		runs = append(runs, run{name: name, scenario: name, clients: 400, sites: 80, hours: 6, bin: time.Hour})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			a, sc := scenarioAnalysis(t, r.scenario, r.clients, r.sites, r.hours, r.bin)
			pairs := a.PermanentPairs(0.9)
			for _, f := range []float64{0.05, 0.10} {
				got := a.ValidateAttribution(a.Attribute(f, pairs), sc)
				_, tags := attributeRef(a, f, pairs)
				want := validateAttributionRef(a, tags, sc)
				if got.Total == 0 {
					t.Fatalf("f=%v: no classified failures to join", f)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("f=%v: ID join %+v, reference %+v", f, *got, *want)
				}
			}
		})
	}

	t.Run("allocs independent of failures", func(t *testing.T) {
		// doubled holds the same records twice over: the merge of two
		// identical accumulators. Joined under the one attribution, its
		// failure list yields every classified failure of a twice.
		a, sc := scenarioAnalysis(t, "paper-default", 0, 0, 6, time.Hour)
		doubled, _ := scenarioAnalysis(t, "paper-default", 0, 0, 6, time.Hour)
		twin, _ := scenarioAnalysis(t, "paper-default", 0, 0, 6, time.Hour)
		if err := doubled.Merge(twin); err != nil {
			t.Fatal(err)
		}
		at := a.Attribute(0.05, a.PermanentPairs(0.9))
		onceRep, twiceRep := a.ValidateAttribution(at, sc), doubled.ValidateAttribution(at, sc)
		if onceRep.Total == 0 || twiceRep.Total != 2*onceRep.Total {
			t.Fatalf("joined %d failures once and %d over the doubled list; want twice as many", onceRep.Total, twiceRep.Total)
		}
		once := testing.AllocsPerRun(5, func() { a.ValidateAttribution(at, sc) })
		twice := testing.AllocsPerRun(5, func() { doubled.ValidateAttribution(at, sc) })
		if once != twice {
			t.Errorf("ValidateAttribution allocated %.0f times over %d failures and %.0f over %d; want no per-failure allocation",
				once, onceRep.Total, twice, twiceRep.Total)
		}
	})
}
