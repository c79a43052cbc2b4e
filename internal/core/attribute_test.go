package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/scenario"
)

// taggedFailure is a classified failure with its blame.
type taggedFailure struct {
	FailureRec
	Blame Blame
}

// attributeRef is the attribution Attribute replaced: it reads the
// failure list as one slice, excludes pairs through a map it builds,
// grows the list of classified failures with their blames by append and
// counts blames as it goes. It is kept as the reference that Attribute
// and the per-failure blames of Attribution.walk must equal.
func attributeRef(a *Analysis, f float64, exclude []PermanentPair) (*Attribution, []taggedFailure) {
	excl := make(map[[2]int32]bool, len(exclude))
	for _, p := range exclude {
		excl[[2]int32{int32(p.Client), int32(p.Site)}] = true
	}
	at := &Attribution{
		F:                  f,
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
	var tags []taggedFailure
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
		tags = append(tags, taggedFailure{FailureRec: fr, Blame: b})
	}
	return at, tags
}

// walkTags lists the failures at classifies over a's failure list, with
// their blames, in walk order.
func walkTags(a *Analysis, at *Attribution) []taggedFailure {
	var out []taggedFailure
	at.walk(a.fails, func(fr *FailureRec, b Blame) {
		out = append(out, taggedFailure{FailureRec: *fr, Blame: b})
	})
	return out
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
// the reference's attribution — threshold, counts, total and both
// episode sets — and its walk every classified failure with the
// reference's blame, in list order, and PermanentPairShare the
// reference's shares, on every shipped scenario cut to 400 clients x 80
// sites x 6 h, at both thresholds Table 5 uses, with the detected
// permanent pairs excluded and with none.
func TestAttributeMatchesReference(t *testing.T) {
	excludedSome := false
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			a, _ := scenarioAnalysis(t, name, 400, 80, 6, time.Hour)
			detected := a.PermanentPairs(0.9)
			excludedSome = excludedSome || len(detected) > 0
			for _, pairs := range [][]PermanentPair{detected, nil} {
				for _, f := range []float64{0.05, 0.10} {
					got := a.Attribute(f, pairs)
					want, wantTags := attributeRef(a, f, pairs)
					if want.Total == 0 {
						t.Fatalf("f=%v, %d excluded pairs: no classified failures", f, len(pairs))
					}
					if got.F != want.F || got.Counts != want.Counts || got.Total != want.Total {
						t.Errorf("f=%v, %d excluded pairs: F %v counts %v total %d, reference F %v counts %v total %d",
							f, len(pairs), got.F, got.Counts, got.Total, want.F, want.Counts, want.Total)
					}
					if !reflect.DeepEqual(got.ClientEpisodeHours, want.ClientEpisodeHours) ||
						!reflect.DeepEqual(got.ServerEpisodeHours, want.ServerEpisodeHours) {
						t.Errorf("f=%v, %d excluded pairs: episode sets differ from the reference", f, len(pairs))
					}
					if gotTags := walkTags(a, got); !slices.Equal(gotTags, wantTags) {
						t.Errorf("f=%v, %d excluded pairs: walk classified %d failures, reference %d, or blamed one differently",
							f, len(pairs), len(gotTags), len(wantTags))
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
