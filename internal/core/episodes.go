package core

import (
	"sort"

	"webfail/internal/httpsim"
	"webfail/internal/stats"
)

// MinEpisodeSamples is the minimum transactions an entity needs in an
// hour for its failure rate there to be meaningful. The paper sized its
// access rate to guarantee "a few hundred accesses per client and per
// server in each episode"; dialup virtual clients see far fewer, so a
// floor keeps tiny-sample rates from dominating.
const MinEpisodeSamples = 8

// EpisodeRateCDFs returns the distribution of per-entity per-hour failure
// rates, separately for clients and servers — Figure 4, whose knee picks
// the threshold f.
//
// The scans run over allocated pages only (forEach): untouched cells
// have zero transactions and cannot pass the MinEpisodeSamples filter,
// so skipping unallocated pages cannot change the CDFs.
func (a *Analysis) EpisodeRateCDFs() (clients, servers *stats.CDF) {
	g := a.mustGrids()
	var cs, ss []float64
	g.client.forEach(func(_ int, cell *gridCell) {
		if cell.Txns >= MinEpisodeSamples {
			cs = append(cs, float64(cell.FailTxns)/float64(cell.Txns))
		}
	})
	g.server.forEach(func(_ int, cell *gridCell) {
		if cell.Txns >= MinEpisodeSamples {
			ss = append(ss, float64(cell.FailTxns)/float64(cell.Txns))
		}
	})
	return stats.NewCDF(cs), stats.NewCDF(ss)
}

// Knee locates the knee of both Figure 4 CDFs and returns the suggested
// episode threshold f (the larger of the two knees, so both entity kinds
// are in their abnormal range beyond it).
func (a *Analysis) Knee() (f float64, err error) {
	cCDF, sCDF := a.EpisodeRateCDFs()
	ck, err := kneeOf(cCDF)
	if err != nil {
		return 0, err
	}
	sk, err := kneeOf(sCDF)
	if err != nil {
		return 0, err
	}
	if sk > ck {
		return sk, nil
	}
	return ck, nil
}

func kneeOf(c *stats.CDF) (float64, error) {
	xs, _ := c.Points(c.Len())
	return stats.Knee(xs)
}

// PermanentPair is a client-server pair with near-permanent failure
// (Section 4.4.2: failure rate over 90% through the month).
type PermanentPair struct {
	Client, Site int
	Txns, Fails  int64
	Rate         float64
}

// pairBetter is the strict total order permanent-pair listings sort by:
// rate descending, ties broken on the pair indexes (rate ties are
// common — many pairs fail 100% of the time).
func pairBetter(a, b PermanentPair) bool {
	if a.Rate != b.Rate {
		return a.Rate > b.Rate
	}
	if a.Client != b.Client {
		return a.Client < b.Client
	}
	return a.Site < b.Site
}

// PermanentPairs detects pairs whose month-long transaction failure rate
// exceeds threshold (the paper uses 0.9) with a minimum sample size.
// The result is complete: attribution needs the full exclusion set.
//
// Cells of unallocated pages have zero transactions and fail the
// minimum-sample filter, so skipping them cannot change the result.
func (a *Analysis) PermanentPairs(threshold float64) []PermanentPair {
	pp := a.mustPairs()
	var out []PermanentPair
	pp.cells.forEach(func(i int, cell *pairCell) {
		if cell.Txns < 20 {
			return
		}
		rate := float64(cell.Fails) / float64(cell.Txns)
		if rate > threshold {
			out = append(out, PermanentPair{
				Client: i / a.nSites, Site: i % a.nSites,
				Txns: cell.Txns, Fails: cell.Fails, Rate: rate,
			})
		}
	})
	sort.Slice(out, func(i, j int) bool { return pairBetter(out[i], out[j]) })
	return out
}

// pairKeys returns pairs as a set keyed by (client, site): the exclusion
// test of Attribute, excludedCells and PermanentPairShare, sized by the
// pairs, never by clients × sites.
func pairKeys(pairs []PermanentPair) map[[2]int32]bool {
	m := make(map[[2]int32]bool, len(pairs))
	for _, p := range pairs {
		m[[2]int32{int32(p.Client), int32(p.Site)}] = true
	}
	return m
}

// PermanentPairShare reports the fraction of all failed *connections* and
// failed transactions carried by the given pairs (the paper: 50.7% of
// connection failures but only 13% of transaction failures).
func (a *Analysis) PermanentPairShare(pairs []PermanentPair) (connShare, txnShare float64) {
	excl := pairKeys(pairs)
	var exclConns, totalConns, exclTxns int64
	a.mustFailures().forEach(func(f *FailureRec) {
		fc := int64(f.Conns)
		if f.Stage != httpsim.StageTCP {
			fc = 0 // only TCP failures have failed connections here
		}
		totalConns += fc
		if excl[[2]int32{f.Client, f.Site}] {
			exclConns += fc
			exclTxns++
		}
	})
	if totalConns > 0 {
		connShare = float64(exclConns) / float64(totalConns)
	}
	if fails := a.TotalFails(); fails > 0 {
		txnShare = float64(exclTxns) / float64(fails)
	}
	return connShare, txnShare
}

// Blame is the attribution category of Table 5.
type Blame uint8

// Blame categories (Section 4.4.4).
const (
	BlameOther Blame = iota
	BlameServer
	BlameClient
	BlameBoth
)

func (b Blame) String() string {
	switch b {
	case BlameServer:
		return "server-side"
	case BlameClient:
		return "client-side"
	case BlameBoth:
		return "both"
	default:
		return "other"
	}
}

// Attribution is the result of the blame-attribution pass.
type Attribution struct {
	F float64
	// Counts per blame category, over TCP connection failures (the
	// paper's Section 4.4 applies the procedure to TCP failures, with
	// permanent pairs excluded).
	Counts map[Blame]int64
	Total  int64

	// Per-failure blame, in failure-list order, for the failures that
	// were classified (TCP failures outside excluded pairs). Used by
	// the spread and proxy analyses.
	Tags []TaggedFailure

	// Episode sets for reuse: ClientEpisodeHours[c] and
	// ServerEpisodeHours[s] hold the hour indices flagged abnormal, as
	// bitsets (~Hours/8 bytes per entity with episodes, vs ~48 bytes
	// per member for the map[int64]bool they replaced). Entities with
	// no episodes hold the zero HourSet, on which Has is always false.
	ClientEpisodeHours []HourSet
	ServerEpisodeHours []HourSet
}

// TaggedFailure pairs a failure with its attribution.
type TaggedFailure struct {
	FailureRec
	Blame Blame
}

// Share returns a blame category's fraction of classified failures.
func (at *Attribution) Share(b Blame) float64 {
	if at.Total == 0 {
		return 0
	}
	return float64(at.Counts[b]) / float64(at.Total)
}

// Attribute runs the blame-attribution procedure of Section 4.4.1/4.4.4
// at threshold f: a failed access is ascribed to the server when the
// server's aggregate failure rate in that hour is abnormally high (>= f),
// to the client when the client's is, to both when both are, and to
// "other" when neither. Pairs in exclude (the permanent pairs of
// Section 4.4.2) are left out entirely.
func (a *Analysis) Attribute(f float64, exclude []PermanentPair) *Attribution {
	excl := pairKeys(exclude)

	at := &Attribution{
		F:                  f,
		Counts:             make(map[Blame]int64),
		ClientEpisodeHours: make([]HourSet, a.nClients),
		ServerEpisodeHours: make([]HourSet, a.nSites),
	}

	// Identify failure episodes per entity-hour, scanning allocated
	// pages only: the exclusion adjustment only lowers counts, so a cell
	// that is zero (or in an unallocated page) can never reach the
	// minimum-sample bar.
	// Excluded pairs' traffic is removed from the rates so a
	// permanently-blocked pair does not manufacture fake episodes for
	// its endpoints. The hour bitsets double as the classification
	// lookup below.
	g := a.mustGrids()
	exclCell := a.excludedCells(excl)
	flagEpisodes := func(sets []HourSet, gr *grid[gridCell], adjs map[int]gridCell) {
		gr.forEach(func(i int, cell *gridCell) {
			adj := adjs[i]
			txns := cell.Txns - adj.Txns
			fails := cell.FailTxns - adj.FailTxns
			if txns >= MinEpisodeSamples && float64(fails)/float64(txns) >= f {
				set := &sets[i/a.Hours]
				if set.bits == nil {
					*set = NewHourSet(a.Hours)
				}
				set.Add(i % a.Hours)
			}
		})
	}
	flagEpisodes(at.ClientEpisodeHours, &g.client, exclCell.client)
	flagEpisodes(at.ServerEpisodeHours, &g.server, exclCell.server)

	// Classify each TCP connection failure, counting them first so Tags
	// is allocated once at its final size.
	fails := a.mustFailures()
	classified := func(fr *FailureRec) bool {
		return fr.Stage == httpsim.StageTCP && !excl[[2]int32{fr.Client, fr.Site}]
	}
	n := 0
	fails.forEach(func(fr *FailureRec) {
		if classified(fr) {
			n++
		}
	})
	if n == 0 {
		return at
	}
	at.Tags = make([]TaggedFailure, 0, n)
	var counts [numBlames]int64
	fails.forEach(func(fr *FailureRec) {
		if !classified(fr) {
			return
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
		counts[b]++
		at.Tags = append(at.Tags, TaggedFailure{FailureRec: *fr, Blame: b})
	})
	for b, c := range counts {
		if c > 0 {
			at.Counts[Blame(b)] = c
		}
	}
	at.Total = int64(n)
	return at
}

// excludedCells accumulates the per-entity-hour traffic belonging to
// excluded pairs, for subtraction. The failure list holds only failures;
// totals come from pair counts spread across hours — we approximate by
// removing the pair's failures (which is what distorts rates) and the
// same number of transactions. The adjustments are keyed by grid index
// and derived from the failure list, so they are proportional to the
// excluded traffic, never to roster geometry (temporaries sized by
// geometry would be GBs at mega-roster scale).
type exclGrid struct {
	client map[int]gridCell
	server map[int]gridCell
}

func (a *Analysis) excludedCells(excl map[[2]int32]bool) exclGrid {
	g := exclGrid{
		client: make(map[int]gridCell),
		server: make(map[int]gridCell),
	}
	if len(excl) == 0 {
		return g
	}
	bump := func(m map[int]gridCell, i int) {
		c := m[i]
		c.Txns++
		c.FailTxns++
		m[i] = c
	}
	a.mustFailures().forEach(func(fr *FailureRec) {
		if excl[[2]int32{fr.Client, fr.Site}] {
			bump(g.client, int(fr.Client)*a.Hours+int(fr.Hour))
			bump(g.server, int(fr.Site)*a.Hours+int(fr.Hour))
		}
	})
	return g
}

// ServerEpisodeStat is one row of Table 6.
type ServerEpisodeStat struct {
	Site string
	// EpisodeHours is the number of 1-hour server-side failure
	// episodes.
	EpisodeHours int
	// Coalesced is the count after merging consecutive hours
	// (Section 4.4.5).
	Coalesced int
	// LongestRun is the longest consecutive episode stretch in hours
	// (sina: 448 h in the paper).
	LongestRun int
	// Spread is the fraction of all clients needed to account for the
	// failures ascribed to this server's episodes (Section 4.4.6 #1).
	Spread float64
}

// ServerEpisodeStats produces Table 6 from an attribution, sorted by
// episode count descending.
func (a *Analysis) ServerEpisodeStats(at *Attribution) []ServerEpisodeStat {
	// Clients affected by failures ascribed to each server: one
	// transient bitset holding a row of words per site, each row used
	// as a set over client indexes.
	words := (a.nClients + 63) / 64
	affected := make([]uint64, a.nSites*words)
	row := func(s int) HourSet { return HourSet{bits: affected[s*words : (s+1)*words]} }
	for _, tf := range at.Tags {
		if tf.Blame != BlameServer && tf.Blame != BlameBoth {
			continue
		}
		r := row(int(tf.Site))
		r.Add(int(tf.Client))
	}

	var out []ServerEpisodeStat
	for s := 0; s < a.nSites; s++ {
		sorted := at.ServerEpisodeHours[s].Hours()
		if len(sorted) == 0 {
			continue
		}
		coalesced, longest := coalesceRuns(sorted)
		st := ServerEpisodeStat{
			Site:         a.Topo.Websites[s].Host,
			EpisodeHours: len(sorted),
			Coalesced:    coalesced,
			LongestRun:   longest,
		}
		if n := row(s).Len(); n > 0 {
			st.Spread = float64(n) / float64(a.nClients)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EpisodeHours != out[j].EpisodeHours {
			return out[i].EpisodeHours > out[j].EpisodeHours
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// coalesceRuns merges consecutive hour indices, returning the run count
// and the longest run length.
func coalesceRuns(sorted []int) (runs, longest int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	runs = 1
	cur := 1
	longest = 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1]+1 {
			cur++
		} else {
			runs++
			cur = 1
		}
		if cur > longest {
			longest = cur
		}
	}
	return runs, longest
}

// ServersWithEpisodes counts websites with at least one / more than one
// server-side failure episode (the paper: 56 of 80 with >= 1, 39 with
// multiple).
func (a *Analysis) ServersWithEpisodes(at *Attribution) (atLeastOne, multiple int) {
	for s := 0; s < a.nSites; s++ {
		n := at.ServerEpisodeHours[s].Len()
		if n >= 1 {
			atLeastOne++
		}
		if n > 1 {
			multiple++
		}
	}
	return atLeastOne, multiple
}

// PairSpecificResult summarizes client-server-specific failure episodes
// (Section 2.2, category 3): (client, server, hour) cells with an
// abnormally high failure rate while NEITHER endpoint is having a failure
// episode — e.g. a broken path segment unique to the pair. Table 5 folds
// these into "other"; this analysis pulls them back out.
type PairSpecificResult struct {
	// Episodes is the number of distinct (client, server, hour) cells
	// flagged.
	Episodes int
	// Failures is the number of classified failures inside those cells.
	Failures int64
	// ShareOfOther is Failures over all "other"-blamed failures.
	ShareOfOther float64
}

// ClientServerSpecific detects pair-specific episodes among an
// attribution's "other" failures. Per-pair-hour access totals are not
// retained (134x80x744 cells); the expected per-hour accesses of a pair
// equal the client's round rate (each round visits every site once), so
// the rate test uses that expectation.
func (a *Analysis) ClientServerSpecific(at *Attribution) PairSpecificResult {
	type cell struct {
		c, s int32
		h    int32
	}
	counts := make(map[cell]int64)
	var otherTotal int64
	for _, tf := range at.Tags {
		if tf.Blame != BlameOther {
			continue
		}
		otherTotal++
		counts[cell{tf.Client, tf.Site, tf.Hour}]++
	}
	var res PairSpecificResult
	for k, n := range counts {
		expected := a.Topo.Clients[k.c].RoundsPerHour * float64(a.binNS) / float64(3600_000_000_000)
		if expected <= 0 {
			continue
		}
		// Abnormal for the pair: at least 2 failures and a rate at or
		// above the attribution threshold.
		if n >= 2 && float64(n)/expected >= at.F {
			res.Episodes++
			res.Failures += n
		}
	}
	if otherTotal > 0 {
		res.ShareOfOther = float64(res.Failures) / float64(otherTotal)
	}
	return res
}
