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
func (a *Analysis) ValidateAttribution(at *Attribution, sc *workload.Scenario) *GroundTruthReport {
	rep := &GroundTruthReport{Confusion: map[Blame]map[Blame]int64{}}
	tl := sc.Timeline

	for _, tf := range at.Tags {
		c := &a.Topo.Clients[tf.Client]
		w := &a.Topo.Websites[tf.Site]
		// Bin midpoint as representative instant.
		atTime := binMid(a, int(tf.Hour))

		serverTruth := activeAnyKind(tl, faults.Entity("www:"+w.Host), atTime,
			faults.ServerOutage, faults.ServerOverload)
		if !serverTruth {
			for _, ra := range w.ReplicaAddrs {
				if _, ok := tl.ActiveID(tl.Lookup(faults.Entity("replica:"+ra.String())), faults.ServerOutage, atTime); ok {
					serverTruth = true
					break
				}
			}
		}
		if !serverTruth {
			for _, p := range w.Prefixes {
				if activeAnyKind(tl, faults.Entity("prefix:"+p.String()), atTime, faults.BGPInstability, faults.PathOutage) {
					serverTruth = true
					break
				}
			}
		}

		clientTruth := activeAnyKind(tl, faults.Entity("site:"+c.Site), atTime,
			faults.ClientConnectivity, faults.LDNSOutage) ||
			activeAnyKind(tl, faults.Entity("client:"+c.Name), atTime, faults.ClientConnectivity) ||
			activeAnyKind(tl, faults.Entity("prefix:"+c.Prefix.String()), atTime,
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
		rep.ServerRecall = recallOf(rep, BlameServer, truthTotal)
	}
	if attr, truthTotal, correct := sums(BlameClient); attr > 0 && truthTotal > 0 {
		rep.ClientPrecision = float64(correct) / float64(attr)
		rep.ClientRecall = recallOf(rep, BlameClient, truthTotal)
	}
	return rep
}

// recallOf counts ground-truth-b failures that were attributed b (or
// both), over all ground-truth-b failures.
func recallOf(rep *GroundTruthReport, b Blame, truthTotal int64) float64 {
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

// activeAnyKind reports whether an episode of any of kinds covers at for
// e, resolving the entity once for all kinds.
func activeAnyKind(tl *faults.Timeline, e faults.Entity, at simnet.Time, kinds ...faults.Kind) bool {
	id := tl.Lookup(e)
	for _, k := range kinds {
		if _, ok := tl.ActiveID(id, k, at); ok {
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
