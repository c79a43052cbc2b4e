package core

import (
	"reflect"
	"sort"
	"testing"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/scenario"
)

// refSummary is the summary webfail-analyze once computed from a second
// read of the stored records: failure counts in hash maps, listed with
// sort.Slice by count descending, ties to the lower key.
// TestTopFailingMatchesReference holds the pass-state listings to it.
type refSummary struct {
	byStage  map[httpsim.Stage]int64
	byClient map[int]int64
	bySite   map[int]int64
	byPair   map[[2]int]int64
	byHour   map[int]int64
}

func newRefSummary(recs []*measure.Record) refSummary {
	ref := refSummary{
		byStage:  map[httpsim.Stage]int64{},
		byClient: map[int]int64{},
		bySite:   map[int]int64{},
		byPair:   map[[2]int]int64{},
		byHour:   map[int]int64{},
	}
	for _, r := range recs {
		if !r.Failed() {
			continue
		}
		ref.byStage[r.Stage]++
		ref.byClient[int(r.ClientIdx)]++
		ref.bySite[int(r.SiteIdx)]++
		ref.byPair[[2]int{int(r.ClientIdx), int(r.SiteIdx)}]++
		ref.byHour[int(r.At.Hour())]++
	}
	return ref
}

// refTop lists every entry of m by count descending, ties to the lower
// key, truncated to k.
func refTop(m map[int]int64, k int) []FailCount {
	out := make([]FailCount, 0, len(m))
	for i, n := range m {
		out = append(out, FailCount{Index: i, Fails: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fails != out[j].Fails {
			return out[i].Fails > out[j].Fails
		}
		return out[i].Index < out[j].Index
	})
	return out[:min(k, len(out))]
}

// refTopPairs is refTop for pairs, ties to the lower client, then site.
func refTopPairs(m map[[2]int]int64, k int) []PairFailCount {
	out := make([]PairFailCount, 0, len(m))
	for p, n := range m {
		out = append(out, PairFailCount{Client: p[0], Site: p[1], Fails: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fails != out[j].Fails {
			return out[i].Fails > out[j].Fails
		}
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].Site < out[j].Site
	})
	return out[:min(k, len(out))]
}

// hasTie reports whether two listed entries share a failure count, so
// a flipped tie-break would reorder the listing.
func hasTie(fails []int64) bool {
	seen := map[int64]bool{}
	for _, f := range fails {
		if seen[f] {
			return true
		}
		seen[f] = true
	}
	return false
}

// TestTopFailingMatchesReference: the stage counts and the client,
// site, pair and hour listings the analyzer passes produce must equal
// the map-and-sort reference at every k. The stream mixes successes
// with failures and heals every failure of one client, one site and
// one hour, so allocated pages hold zero-failure cells a listing must
// leave out; and every listing carries tied counts whose order the
// tie-break decides.
func TestTopFailingMatchesReference(t *testing.T) {
	topo := scenario.SyntheticTopology(36, 12)
	const hours = 24
	recs := synthStream(topo, hours, 40, 5)
	healedClient, healedSite, healedHour := int32(len(topo.Clients)-1), int32(len(topo.Websites)-1), int64(hours-1)
	for _, r := range recs {
		if r.ClientIdx == healedClient || r.SiteIdx == healedSite || r.At.Hour() == healedHour {
			*r = measure.Record{ClientIdx: r.ClientIdx, SiteIdx: r.SiteIdx, At: r.At,
				Category: r.Category, Conns: 1, StatusCode: 200}
		}
	}
	a := buildState(topo, hours, recs)
	ref := newRefSummary(recs)

	for _, st := range []httpsim.Stage{httpsim.StageDNS, httpsim.StageTCP, httpsim.StageHTTP} {
		if got, want := a.StageFailures(st), ref.byStage[st]; got != want {
			t.Errorf("StageFailures(%v) = %d, want %d", st, got, want)
		}
	}

	var zeroPairCells int
	a.pairs.cells.forEach(func(_ int, c *pairCell) {
		if c.Txns > 0 && c.Fails == 0 {
			zeroPairCells++
		}
	})
	if zeroPairCells == 0 {
		t.Fatal("no allocated pair cell has traffic without failures; the zero-failure filter goes untested")
	}
	pairFails := make([]int64, 0, len(ref.byPair))
	for _, n := range ref.byPair {
		pairFails = append(pairFails, n)
	}

	listings := []struct {
		name      string
		entities  int
		fails     map[int]int64
		got       func(k int) []FailCount
		startHour int64
	}{
		{"clients", len(topo.Clients), ref.byClient, a.TopFailingClients, 0},
		{"sites", len(topo.Websites), ref.bySite, a.TopFailingSites, 0},
		{"hours", a.Hours, ref.byHour, a.WorstHours, a.StartHour},
	}
	for _, l := range listings {
		if len(l.fails) >= l.entities {
			t.Fatalf("%s: every entity failed; the zero-failure filter goes untested", l.name)
		}
		all := refTop(l.fails, len(l.fails))
		var counts []int64
		for _, e := range all {
			counts = append(counts, e.Fails)
		}
		if !hasTie(counts) {
			t.Fatalf("%s: no tied counts; the tie-break goes untested", l.name)
		}
		for _, k := range []int{0, 1, 3, len(all), len(all) + 5} {
			got := l.got(k)
			for i := range got {
				got[i].Index += int(l.startHour)
			}
			want := refTop(l.fails, k)
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s k=%d:\n got %v\nwant %v", l.name, k, got, want)
				}
			}
		}
	}

	if !hasTie(pairFails) {
		t.Fatal("pairs: no tied counts; the tie-break goes untested")
	}
	for _, k := range []int{0, 1, 3, len(ref.byPair), len(ref.byPair) + 5} {
		got, want := a.TopFailingPairs(k), refTopPairs(ref.byPair, k)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pairs k=%d:\n got %v\nwant %v", k, got, want)
			}
		}
	}
}
