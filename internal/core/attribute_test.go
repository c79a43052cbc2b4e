package core

import (
	"reflect"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/scenario"
)

// attributeRef is the attribution Attribute replaced: it reads the
// failure list as one slice, grows Tags by append and counts blames in
// the Counts map. It is kept as the reference the block-scanning,
// exactly sized Attribute must equal.
func attributeRef(a *Analysis, f float64, exclude []PermanentPair) *Attribution {
	excl := make(map[[2]int32]bool, len(exclude))
	for _, p := range exclude {
		excl[[2]int32{int32(p.Client), int32(p.Site)}] = true
	}
	at := &Attribution{
		F:                  f,
		Counts:             make(map[Blame]int64),
		ClientEpisodeHours: make([]HourSet, a.nClients),
		ServerEpisodeHours: make([]HourSet, a.nSites),
	}
	fails := failureList(a)
	adjClient, adjServer := map[int]gridCell{}, map[int]gridCell{}
	bump := func(m map[int]gridCell, i int) {
		c := m[i]
		c.Txns++
		c.FailTxns++
		m[i] = c
	}
	for _, fr := range fails {
		if excl[[2]int32{fr.Client, fr.Site}] {
			bump(adjClient, int(fr.Client)*a.Hours+int(fr.Hour))
			bump(adjServer, int(fr.Site)*a.Hours+int(fr.Hour))
		}
	}
	flag := func(sets []HourSet, gr *grid[gridCell], adjs map[int]gridCell) {
		gr.forEach(func(i int, cell *gridCell) {
			txns := cell.Txns - adjs[i].Txns
			failed := cell.FailTxns - adjs[i].FailTxns
			if txns >= MinEpisodeSamples && float64(failed)/float64(txns) >= f {
				set := &sets[i/a.Hours]
				if set.bits == nil {
					*set = NewHourSet(a.Hours)
				}
				set.Add(i % a.Hours)
			}
		})
	}
	flag(at.ClientEpisodeHours, &a.grids.client, adjClient)
	flag(at.ServerEpisodeHours, &a.grids.server, adjServer)
	for _, fr := range fails {
		if fr.Stage != httpsim.StageTCP || excl[[2]int32{fr.Client, fr.Site}] {
			continue
		}
		cFlag := at.ClientEpisodeHours[fr.Client].Has(int(fr.Hour))
		sFlag := at.ServerEpisodeHours[fr.Site].Has(int(fr.Hour))
		var b Blame
		switch {
		case cFlag && sFlag:
			b = BlameBoth
		case sFlag:
			b = BlameServer
		case cFlag:
			b = BlameClient
		default:
			b = BlameOther
		}
		at.Counts[b]++
		at.Total++
		at.Tags = append(at.Tags, TaggedFailure{FailureRec: fr, Blame: b})
	}
	return at
}

// permanentPairShareRef is PermanentPairShare over the failure list as
// one slice.
func permanentPairShareRef(a *Analysis, pairs []PermanentPair) (connShare, txnShare float64) {
	excl := make(map[[2]int32]bool, len(pairs))
	for _, p := range pairs {
		excl[[2]int32{int32(p.Client), int32(p.Site)}] = true
	}
	var exclConns, totalConns, exclTxns int64
	for _, f := range failureList(a) {
		fc := int64(f.Conns)
		if f.Stage != httpsim.StageTCP {
			fc = 0
		}
		totalConns += fc
		if excl[[2]int32{f.Client, f.Site}] {
			exclConns += fc
			exclTxns++
		}
	}
	if totalConns > 0 {
		connShare = float64(exclConns) / float64(totalConns)
	}
	if fails := a.TotalFails(); fails > 0 {
		txnShare = float64(exclTxns) / float64(fails)
	}
	return connShare, txnShare
}

// TestAttributeMatchesReference requires Attribute to produce exactly
// the reference's Attribution — counts, total, every tag in order and
// both episode sets — and PermanentPairShare the reference's shares, on
// every shipped scenario cut to 400 clients x 80 sites x 6 h, at both
// thresholds Table 5 uses, with the detected permanent pairs excluded
// and with none.
func TestAttributeMatchesReference(t *testing.T) {
	excludedSome := false
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			a, _ := scenarioAnalysis(t, name, 400, 80, 6, time.Hour)
			detected := a.PermanentPairs(0.9)
			excludedSome = excludedSome || len(detected) > 0
			for _, pairs := range [][]PermanentPair{detected, nil} {
				for _, f := range []float64{0.05, 0.10} {
					got, want := a.Attribute(f, pairs), attributeRef(a, f, pairs)
					if want.Total == 0 {
						t.Fatalf("f=%v, %d excluded pairs: no classified failures", f, len(pairs))
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("f=%v, %d excluded pairs: counts %v total %d, reference counts %v total %d",
							f, len(pairs), got.Counts, got.Total, want.Counts, want.Total)
					}
				}
				gotConn, gotTxn := a.PermanentPairShare(pairs)
				wantConn, wantTxn := permanentPairShareRef(a, pairs)
				if gotConn != wantConn || gotTxn != wantTxn {
					t.Errorf("%d pairs: shares %v/%v, reference %v/%v", len(pairs), gotConn, gotTxn, wantConn, wantTxn)
				}
			}
		})
	}
	if !excludedSome {
		t.Error("no scenario cut has a detected permanent pair; the exclusion path went untested")
	}
}
