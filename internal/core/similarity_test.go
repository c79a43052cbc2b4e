package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"webfail/internal/scenario"
	"webfail/internal/workload"
)

// coLocatedRef is the co-located similarity listing that
// CoLocatedSimilarityTop's stream replaced: it lists every co-located
// pair by client name, resolves both names through a name→index map,
// and sorts the whole list with simBetter.
func coLocatedRef(a *Analysis, at *Attribution) []PairSimilarity {
	bySite := map[string][]string{}
	var siteOrder []string
	for i := range a.Topo.Clients {
		c := &a.Topo.Clients[i]
		if c.Category == workload.CN {
			continue
		}
		if _, ok := bySite[c.Site]; !ok {
			siteOrder = append(siteOrder, c.Site)
		}
		bySite[c.Site] = append(bySite[c.Site], c.Name)
	}
	nameIdx := map[string]int{}
	for i := range a.Topo.Clients {
		nameIdx[a.Topo.Clients[i].Name] = i
	}
	var out []PairSimilarity
	for _, site := range siteOrder {
		names := bySite[site]
		for x, na := range names {
			for _, nb := range names[x+1:] {
				union, sim := episodeSimilarity(at.ClientEpisodeHours[nameIdx[na]], at.ClientEpisodeHours[nameIdx[nb]])
				out = append(out, PairSimilarity{A: na, B: nb, UnionSize: union, Similarity: sim})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return simBetter(out[i], out[j]) })
	return out
}

// randomPairsRef is the list of random draws RandomPairSimilarity
// tabulates: the same seeded rejection sampling, keeping every drawn
// pair.
func randomPairsRef(a *Analysis, at *Attribution, seed int64, n int) []PairSimilarity {
	rng := rand.New(rand.NewSource(seed))
	var eligible []int
	for i := range a.Topo.Clients {
		if a.Topo.Clients[i].Category != workload.CN {
			eligible = append(eligible, i)
		}
	}
	var out []PairSimilarity
	for draws := 0; len(out) < n && len(eligible) >= 2 && draws < randomPairMaxDraws(n); draws++ {
		i := eligible[rng.Intn(len(eligible))]
		j := eligible[rng.Intn(len(eligible))]
		if i == j || a.Topo.Clients[i].Site == a.Topo.Clients[j].Site {
			continue
		}
		union, sim := episodeSimilarity(at.ClientEpisodeHours[i], at.ClientEpisodeHours[j])
		out = append(out, PairSimilarity{
			A: a.Topo.Clients[i].Name, B: a.Topo.Clients[j].Name,
			UnionSize: union, Similarity: sim,
		})
	}
	return out
}

// tabulateRef reduces a pair list to the Table 7 histogram.
func tabulateRef(pairs []PairSimilarity) SimilarityTable {
	t := SimilarityTable{Pairs: len(pairs)}
	for _, p := range pairs {
		switch {
		case p.Similarity > 0.75:
			t.Over75++
		case p.Similarity >= 0.50:
			t.Band50to75++
		case p.Similarity >= 0.25:
			t.Band25to50++
		case p.Similarity > 0:
			t.Under25++
		default:
			t.Zero++
		}
	}
	return t
}

// TestSimilarityMatchesReference requires the streamed Tables 7–8 to
// equal the listing reference on every shipped scenario cut to 400
// clients x 80 sites x 6 h: CoLocatedSimilarityTop's rows must equal
// the fully sorted pair list cut to k, for k of 0, 1, 8 and every pair,
// with the list's histogram, and RandomPairSimilarity's table the
// histogram of the reference's random draws.
func TestSimilarityMatchesReference(t *testing.T) {
	shared := false
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			a, _ := scenarioAnalysis(t, name, 400, 80, 6, time.Hour)
			at := a.Attribute(0.05, a.PermanentPairs(0.9))
			ref := coLocatedRef(a, at)
			if len(ref) == 0 {
				t.Fatal("no co-located pairs")
			}
			shared = shared || ref[0].UnionSize > 0
			wantTable := tabulateRef(ref)
			for _, k := range []int{0, 1, 8, len(ref)} {
				table, top := a.CoLocatedSimilarityTop(at, k)
				if table != wantTable {
					t.Errorf("k=%d: table %+v, reference %+v", k, table, wantTable)
				}
				if want := ref[:min(k, len(ref))]; !slices.Equal(top, want) {
					t.Errorf("k=%d: top %+v, reference %+v", k, top, want)
				}
			}
			got := a.RandomPairSimilarity(at, 42, len(ref))
			if want := tabulateRef(randomPairsRef(a, at, 42, len(ref))); got != want {
				t.Errorf("random pairs: table %+v, reference %+v", got, want)
			}
		})
	}
	if !shared {
		t.Error("no scenario cut has a co-located pair with a client-side episode; the rankings went untested")
	}
}
