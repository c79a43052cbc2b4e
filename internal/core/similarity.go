package core

import (
	"math/rand"

	"webfail/internal/workload"
)

// PairSimilarity is one pair's similarity measure (Section 4.4.6 #2): the
// ratio of shared client-side failure episodes to the union of both
// clients' episodes.
type PairSimilarity struct {
	A, B       string
	UnionSize  int
	Similarity float64
}

// SimilarityTable is the Table 7 histogram: pair counts per similarity
// band for co-located and random pairings.
type SimilarityTable struct {
	Pairs int
	// Band counts: >75%, 50–75%, 25–50%, (0,25%), exactly 0.
	Over75, Band50to75, Band25to50, Under25, Zero int
}

// add counts one pair of similarity sim.
func (t *SimilarityTable) add(sim float64) {
	t.Pairs++
	switch {
	case sim > 0.75:
		t.Over75++
	case sim >= 0.50:
		t.Band50to75++
	case sim >= 0.25:
		t.Band25to50++
	case sim > 0:
		t.Under25++
	default:
		t.Zero++
	}
}

// episodeSimilarity computes a pair's union size and Jaccard similarity
// in one word-wise pass over the episode bitsets (by the paper's
// convention an empty union yields similarity 0).
func episodeSimilarity(ea, eb HourSet) (union int, sim float64) {
	union, inter := unionInter(ea, eb)
	if union == 0 {
		return 0, 0
	}
	return union, float64(inter) / float64(union)
}

// simBetter is the strict total order similarity listings sort by:
// union size descending (small episode sets tie often), names ascending.
func simBetter(a, b PairSimilarity) bool {
	if a.UnionSize != b.UnionSize {
		return a.UnionSize > b.UnionSize
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// CoLocatedSimilarityTop computes the similarity of client-side failure
// episodes, under an attribution's episode sets, for each of the
// topology's co-located pairs in one streaming pass: the full Table 7
// histogram plus Table 8's k highest-ranked pairs, sorted best first by
// simBetter. It retains O(k) pairs, so rosters whose co-located pair
// list would not fit render in bounded memory; the order is total, so
// the top list equals a sort of every pair truncated to k, row for row.
func (a *Analysis) CoLocatedSimilarityTop(at *Attribution, k int) (SimilarityTable, []PairSimilarity) {
	var t SimilarityTable
	top := newTopK[PairSimilarity](k, func(x, y PairSimilarity) bool { return simBetter(y, x) })
	a.Topo.EachCoLocatedPair(func(i, j int) {
		union, sim := episodeSimilarity(at.ClientEpisodeHours[i], at.ClientEpisodeHours[j])
		t.add(sim)
		top.push(PairSimilarity{A: a.Topo.Clients[i].Name, B: a.Topo.Clients[j].Name, UnionSize: union, Similarity: sim})
	})
	return t, top.sorted()
}

// randomPairMaxDraws bounds RandomPairSimilarity's rejection sampling:
// with fewer than maxDraws = 128*n + 256 attempts the draw loop gives
// up deterministically rather than spinning forever on a roster where
// every eligible pair collides (all eligible clients at one site). At
// paper scale collisions are rare (~1-2% of draws), so the bound is
// orders of magnitude of headroom and never triggers.
func randomPairMaxDraws(n int) int { return 128*n + 256 }

// RandomPairSimilarity computes the control: the Table 7 histogram of
// the same measure over randomly paired clients (same count as the
// co-located set, CN excluded to match), seeded for reproducibility.
// The table may count fewer than n pairs if the draw bound is hit first
// (see randomPairMaxDraws).
func (a *Analysis) RandomPairSimilarity(at *Attribution, seed int64, n int) SimilarityTable {
	rng := rand.New(rand.NewSource(seed))
	var eligible []int
	for i := range a.Topo.Clients {
		if a.Topo.Clients[i].Category != workload.CN {
			eligible = append(eligible, i)
		}
	}
	var t SimilarityTable
	for draws := 0; t.Pairs < n && len(eligible) >= 2 && draws < randomPairMaxDraws(n); draws++ {
		i := eligible[rng.Intn(len(eligible))]
		j := eligible[rng.Intn(len(eligible))]
		if i == j || a.Topo.Clients[i].Site == a.Topo.Clients[j].Site {
			continue
		}
		_, sim := episodeSimilarity(at.ClientEpisodeHours[i], at.ClientEpisodeHours[j])
		t.add(sim)
	}
	return t
}
