package core

import (
	"webfail/internal/faults"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// GroundTruthReport quantifies how well the blame-attribution procedure
// recovered the injected fault schedule — the direct validation the
// original study could not perform (Section 4.4.6 resorts to indirect
// evidence; here the scenario timeline IS the ground truth).
//
// For every classified TCP failure we ask what the injected cause was at
// that instant: a server-side fault (website outage/overload, replica
// outage), a client-side fault (site/client connectivity, WAN outage on
// the client prefix, client-prefix BGP event), both, or none (a
// transient). Precision is the fraction of attributions whose ground
// truth agrees; recall is the fraction of ground-truth-X failures
// attributed X.
type GroundTruthReport struct {
	// Confusion[attributed][truth] counts classified failures.
	Confusion map[Blame]map[Blame]int64
	Total     int64

	ServerPrecision, ServerRecall float64
	ClientPrecision, ClientRecall float64
}

// ValidateAttribution joins an attribution with the scenario that
// generated the run. The transaction time is reconstructed from the bin
// index midpoint, which is exact enough because injected episodes are
// much longer than a bin.
//
// The join queries the timeline by handle: the roster is resolved to its
// entity table once per call, and the server-side truth of a (site,
// bin), which depends on nothing else, is computed once. A classified
// failure then costs a few ActiveID queries, with no entity-name
// building or hashing.
func (a *Analysis) ValidateAttribution(at *Attribution, sc *workload.Scenario) *GroundTruthReport {
	tl := sc.Timeline
	ids := sc.EntityIDs(a.Topo)
	serverActive := func(s int, atTime simnet.Time) bool {
		if activeAnyKind(tl, ids.Website[s], atTime, faults.ServerOutage, faults.ServerOverload) {
			return true
		}
		for _, id := range ids.Replica[s] {
			if activeAnyKind(tl, id, atTime, faults.ServerOutage) {
				return true
			}
		}
		for _, id := range ids.Prefixes[s] {
			if activeAnyKind(tl, id, atTime, faults.BGPInstability, faults.PathOutage) {
				return true
			}
		}
		return false
	}
	// serverMemo[site*Hours+bin] is 0 until that cell's server-side
	// truth is computed, then 1 (false) or 2 (true).
	serverMemo := make([]uint8, a.nSites*a.Hours)

	var conf [numBlames][numBlames]int64
	var total int64
	at.walk(a.mustFailures(), func(fr *FailureRec, b Blame) {
		// Bin midpoint as representative instant.
		atTime := binMid(a, int(fr.Hour))

		memo := &serverMemo[int(fr.Site)*a.Hours+int(fr.Hour)]
		if *memo == 0 {
			*memo = 1
			if serverActive(int(fr.Site), atTime) {
				*memo = 2
			}
		}
		serverTruth := *memo == 2

		c := fr.Client
		clientTruth := activeAnyKind(tl, ids.Site[c], atTime, faults.ClientConnectivity, faults.LDNSOutage) ||
			activeAnyKind(tl, ids.Client[c], atTime, faults.ClientConnectivity) ||
			activeAnyKind(tl, ids.ClientPrefix[c], atTime, faults.BGPInstability, faults.PathOutage)

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
		conf[b][truth]++
		total++
	})

	rep := &GroundTruthReport{Confusion: map[Blame]map[Blame]int64{}, Total: total}
	for attr, row := range conf {
		for truth, n := range row {
			if n == 0 {
				continue
			}
			if rep.Confusion[Blame(attr)] == nil {
				rep.Confusion[Blame(attr)] = map[Blame]int64{}
			}
			rep.Confusion[Blame(attr)][Blame(truth)] = n
		}
	}
	rep.ServerPrecision, rep.ServerRecall = precisionRecall(&conf, BlameServer)
	rep.ClientPrecision, rep.ClientRecall = precisionRecall(&conf, BlameClient)
	return rep
}

// precisionRecall scores blame b against a confusion matrix, treating
// "both" as agreeing with either side: precision is the share of b (or
// both) attributions whose truth is b or both, recall the share of b
// (or both) truths attributed b or both. Both are zero unless b was
// attributed and occurred.
func precisionRecall(conf *[numBlames][numBlames]int64, b Blame) (precision, recall float64) {
	var attributed, truthTotal, correct int64
	for attr, row := range conf {
		for truth, n := range row {
			attrMatch := Blame(attr) == b || Blame(attr) == BlameBoth
			truthMatch := Blame(truth) == b || Blame(truth) == BlameBoth
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
	if attributed == 0 || truthTotal == 0 {
		return 0, 0
	}
	return float64(correct) / float64(attributed), float64(correct) / float64(truthTotal)
}

// activeAnyKind reports whether an episode of any of kinds covers at for
// the interned entity id.
func activeAnyKind(tl *faults.Timeline, id faults.EntityID, at simnet.Time, kinds ...faults.Kind) bool {
	for _, k := range kinds {
		if tl.ActiveID(id, k, at) != nil {
			return true
		}
	}
	return false
}

// binMid returns the midpoint instant of window-relative bin h.
func binMid(a *Analysis, h int) simnet.Time {
	return simnet.Time((a.StartHour+int64(h))*a.binNS + a.binNS/2)
}

// DetectedPermanentBlocks cross-checks detected permanent pairs against
// the scenario's injected blocks, returning how many detected pairs were
// injected (true positives), how many injected blocks went undetected
// (false negatives), and how many detections have no injected block
// (false positives).
func (a *Analysis) DetectedPermanentBlocks(pairs []PermanentPair, sc *workload.Scenario, topo *workload.Topology) (tp, fn, fp int) {
	injected := map[[2]string]bool{}
	for _, p := range sc.PermanentClientPairs(topo) {
		injected[[2]string{p[0], p[1]}] = true
	}
	detected := map[[2]string]bool{}
	for _, p := range pairs {
		key := [2]string{topo.Clients[p.Client].Name, topo.Websites[p.Site].Host}
		detected[key] = true
		if injected[key] {
			tp++
		} else {
			fp++
		}
	}
	for key := range injected {
		if !detected[key] {
			fn++
		}
	}
	return tp, fn, fp
}
