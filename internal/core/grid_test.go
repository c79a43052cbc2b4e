package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// synthStream generates a deterministic client-major record stream over
// a synthetic topology, engineered to exercise every state-bearing
// pass: DNS/TCP/HTTP failure mixes, hour-localized client and server
// fault windows (episodes), always-failing pairs (permanent-pair
// detection and exclusion), replica hits, and loss-signal packet
// counts.
func synthStream(topo *workload.Topology, hours int64, perClient int, seed int64) []*measure.Record {
	var out []*measure.Record
	synthVisit(topo, hours, perClient, seed, func(r *measure.Record) {
		c := *r
		out = append(out, &c)
	})
	return out
}

// synthVisit is the streaming form of synthStream: records are
// generated client-major and handed to visit one at a time through a
// reused struct, so internet-scale rosters never materialize the
// stream (the scale tests feed millions of records this way).
func synthVisit(topo *workload.Topology, hours int64, perClient int, seed int64, visit func(*measure.Record)) {
	rng := rand.New(rand.NewSource(seed))
	nSites := len(topo.Websites)
	emit := func(c, s int, hour int64, fail bool) {
		r := measure.Record{
			ClientIdx: int32(c),
			SiteIdx:   int32(s),
			At:        simnet.FromHours(hour).Add(time.Duration(rng.Intn(3600)) * time.Second),
			Category:  topo.Clients[c].Category,
			Conns:     1,
		}
		if fail {
			switch rng.Intn(4) {
			case 0:
				r.Stage = httpsim.StageDNS
				r.DNS = measure.DNSLDNSTimeout
				r.Conns = 0
			case 3:
				r.Stage = httpsim.StageHTTP
				r.StatusCode = 503
				r.Conns = 2
			default:
				r.Stage = httpsim.StageTCP
				r.FailKind = httpsim.NoConnection
				r.Conns = 3
			}
		} else {
			r.StatusCode = 200
			r.Bytes = 10240
			r.DataPkts = int16(8 + rng.Intn(12))
			r.Retransmits = int16(rng.Intn(3))
			if ras := topo.Websites[s].ReplicaAddrs; len(ras) > 0 {
				r.ReplicaIP = ras[rng.Intn(len(ras))]
			}
		}
		visit(&r)
	}
	// Permanent pairs: every 6th client is fully blocked from one site.
	blocked := func(c, s int) bool { return c%6 == 0 && s == (c/6)%nSites }
	for c := range topo.Clients {
		for i := 0; i < perClient; i++ {
			s := rng.Intn(nSites)
			hour := int64(rng.Intn(int(hours)))
			// Fault windows: some clients fail hard in the first two
			// hours, some servers fail hard in hours 3-4, producing
			// attributable episodes in both grids.
			p := 0.04
			if c%7 == 0 && hour < 2 {
				p = 0.95
			}
			if s%5 == 0 && hour >= 3 && hour < 5 {
				p = 0.95
			}
			if blocked(c, s) {
				p = 1
			}
			emit(c, s, hour, rng.Float64() < p)
		}
		// Extra accesses to the blocked site so the pair clears the
		// >=20-txn permanent-pair floor.
		if c%6 == 0 {
			s := (c / 6) % nSites
			for i := 0; i < 25; i++ {
				emit(c, s, int64(rng.Intn(int(hours))), true)
			}
		}
	}
}

// snapshotGrid captures a grid's non-zero cells.
func snapshotGrid[C comparable](g *grid[C]) map[int]C {
	m := make(map[int]C)
	var zero C
	g.forEach(func(i int, c *C) {
		if *c != zero {
			m[i] = *c
		}
	})
	return m
}

// stateFingerprint is the artifact bundle the merge-order test compares
// across shard counts and merge orders: every analysis output the
// report layer reads, plus snapshots of the raw pass state.
type stateFingerprint struct {
	Txns, Fails          int64
	Summary              []CategorySummary
	ClientXs, ServerXs   []float64
	MedianC, MedianS     float64
	Q90                  float64
	Pairs                []PermanentPair
	ConnShare, TxnShare  float64
	Counts               [numBlames]int64
	Total                int64
	ClientEp, ServerEp   [][]int
	SES                  []ServerEpisodeStat
	AtLeastOne, Multiple int
	CoLoc                []PairSimilarity
	Table                SimilarityTable
	Top                  []PairSimilarity
	Rand                 SimilarityTable
	Census               ReplicaCensus
	Split                ReplicaFailureSplit
	Loss                 float64
	LossErr              string
	PairSpec             PairSpecificResult
	StageFails           []int64
	WorstClients         []FailCount
	WorstSites           []FailCount
	WorstHours           []FailCount
	WorstPairs           []PairFailCount

	GridClient, GridServer map[int]gridCell
	ConnClient, ConnServer map[int]connCell
	PairCells              map[int]pairCell
	ReplicaHours           map[int]gridCell
	Pkts, Retr             []int64
}

func fingerprint(a *Analysis) stateFingerprint {
	fp := stateFingerprint{
		Txns:    a.TotalTxns(),
		Fails:   a.TotalFails(),
		Summary: a.Summary(),
	}
	cc, sc := a.EpisodeRateCDFs()
	fp.ClientXs, _ = cc.Points(cc.Len())
	fp.ServerXs, _ = sc.Points(sc.Len())
	fp.MedianC, fp.MedianS = a.MedianFailureRates()
	fp.Q90 = a.ClientFailureRateQuantile(0.9)
	fp.Pairs = a.PermanentPairs(0.9)
	fp.ConnShare, fp.TxnShare = a.PermanentPairShare(fp.Pairs)
	const all = 1 << 20 // past every listing's length
	at := a.Attribute(0.5, fp.Pairs)
	fp.Counts, fp.Total = at.Counts, at.Total
	for _, hs := range at.ClientEpisodeHours {
		fp.ClientEp = append(fp.ClientEp, hs.Hours())
	}
	for _, hs := range at.ServerEpisodeHours {
		fp.ServerEp = append(fp.ServerEp, hs.Hours())
	}
	fp.SES = a.ServerEpisodeStats(at)
	fp.AtLeastOne, fp.Multiple = a.ServersWithEpisodes(at)
	_, fp.CoLoc = a.CoLocatedSimilarityTop(at, all)
	fp.Table, fp.Top = a.CoLocatedSimilarityTop(at, 8)
	fp.Rand = a.RandomPairSimilarity(at, 42, fp.Table.Pairs)
	fp.Census = a.ReplicaCensusDefault()
	fp.Split = a.ReplicaAnalysis(at, fp.Census)
	loss, err := a.LossCorrelation()
	fp.Loss = loss
	if err != nil {
		fp.LossErr = err.Error()
	}
	fp.PairSpec = a.ClientServerSpecific(at)
	for _, st := range []httpsim.Stage{httpsim.StageDNS, httpsim.StageTCP, httpsim.StageHTTP} {
		fp.StageFails = append(fp.StageFails, a.StageFailures(st))
	}
	fp.WorstClients = a.TopFailingClients(all)
	fp.WorstSites = a.TopFailingSites(all)
	fp.WorstHours = a.WorstHours(all)
	fp.WorstPairs = a.TopFailingPairs(all)

	fp.GridClient = snapshotGrid(&a.grids.client)
	fp.GridServer = snapshotGrid(&a.grids.server)
	fp.ConnClient = snapshotGrid(&a.conns.client)
	fp.ConnServer = snapshotGrid(&a.conns.server)
	fp.PairCells = snapshotGrid(&a.pairs.cells)
	fp.ReplicaHours = snapshotGrid(&a.replicas.replicaHours)
	fp.Pkts = slices.Clone(a.traffic.clientPkts)
	fp.Retr = slices.Clone(a.traffic.clientRetrans)
	return fp
}

// buildState feeds recs serially into a fresh accumulator.
func buildState(topo *workload.Topology, hours int64, recs []*measure.Record) *Analysis {
	a := NewAnalysis(topo, 0, simnet.FromHours(hours))
	for _, r := range recs {
		a.Add(r)
	}
	return a
}

// buildSharded partitions recs by contiguous client range into shards
// accumulators (the measure.RunParallel partition) and merges them in
// the given order.
func buildSharded(t *testing.T, topo *workload.Topology, hours int64, recs []*measure.Record, shards int, order []int) *Analysis {
	t.Helper()
	n := len(topo.Clients)
	accs := make([]*Analysis, shards)
	for i := range accs {
		accs[i] = NewAnalysis(topo, 0, simnet.FromHours(hours))
	}
	for _, r := range recs {
		s := int(r.ClientIdx) * shards / n
		if s >= shards {
			s = shards - 1
		}
		accs[s].Add(r)
	}
	merged := NewAnalysis(topo, 0, simnet.FromHours(hours))
	for _, s := range order {
		if err := merged.Merge(accs[s]); err != nil {
			t.Fatalf("merge shard %d: %v", s, err)
		}
	}
	return merged
}

// refCells is a plain map accumulation of one grid: the value of every
// cell the record stream touched, zero-valued ones included.
type refCells[C comparable] map[int]C

// checkGrid asserts that g holds exactly ref's non-zero cells, never
// visits a cell past its geometry, and has allocated exactly the pages
// of the cells ref touched.
func checkGrid[C comparable](t *testing.T, name string, g *grid[C], ref refCells[C]) {
	t.Helper()
	want := make(map[int]C)
	wantPages := make(map[int]bool)
	var zero C
	for i, c := range ref {
		if c != zero {
			want[i] = c
		}
		wantPages[i>>pageShift] = true
	}
	if got := snapshotGrid(g); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: grid cells differ from the reference:\n want %v\n  got %v", name, want, got)
	}
	g.forEach(func(i int, _ *C) {
		if i >= g.n {
			t.Errorf("%s: forEach visited cell %d past the geometry's %d", name, i, g.n)
		}
	})
	for k, p := range g.pages {
		if (p != nil) != wantPages[k] {
			t.Errorf("%s: page %d allocated=%v, want %v", name, k, p != nil, wantPages[k])
		}
	}
}

// TestGridMatchesReference checks the paged grids against a plain map
// accumulation of the same record stream, on random synthetic rosters
// whose geometries end mid-page: every grid must hold exactly the
// reference's cells, in exactly the pages those cells fall in.
func TestGridMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			nClients := 16 + rng.Intn(40)
			nSites := 8 + rng.Intn(16)
			hours := int64(6 + rng.Intn(6))
			topo := scenario.SyntheticTopology(nClients, nSites)
			recs := synthStream(topo, hours, 24*int(hours), seed)
			a := buildState(topo, hours, recs)
			if (nClients*int(hours))%pageCells == 0 && (nClients*nSites)%pageCells == 0 {
				t.Fatalf("%d clients x %d sites x %d hours ends on a page boundary; pick rosters that end mid-page", nClients, nSites, hours)
			}

			replicaIdx := make(map[netip.Addr]int)
			for _, w := range topo.Websites {
				for _, ra := range w.ReplicaAddrs {
					replicaIdx[ra] = len(replicaIdx)
				}
			}
			gc, gs := refCells[gridCell]{}, refCells[gridCell]{}
			cc, cs := refCells[connCell]{}, refCells[connCell]{}
			pc, rh := refCells[pairCell]{}, refCells[gridCell]{}
			for _, r := range recs {
				h, _ := a.hourIndex(r.At)
				ci, si := int(r.ClientIdx)*int(hours)+h, int(r.SiteIdx)*int(hours)+h
				fail, fc := int32(0), int32(r.FailedConns())
				if r.Failed() {
					fail = 1
				}
				gc[ci] = gridCell{gc[ci].Txns + 1, gc[ci].FailTxns + fail}
				gs[si] = gridCell{gs[si].Txns + 1, gs[si].FailTxns + fail}
				c := cc[ci]
				c.Conns += int32(r.Conns)
				c.FailConns += fc
				if r.Failed() {
					c.streakCur++
					c.StreakMax = max(c.StreakMax, c.streakCur)
				} else {
					c.streakCur = 0
				}
				cc[ci] = c
				cs[si] = connCell{Conns: cs[si].Conns + int32(r.Conns), FailConns: cs[si].FailConns + fc}
				pi := int(r.ClientIdx)*nSites + int(r.SiteIdx)
				pc[pi] = pairCell{pc[pi].Txns + 1, pc[pi].Fails + int64(fail)}
				if ri, ok := replicaIdx[r.ReplicaIP]; ok {
					ri = ri*int(hours) + h
					rh[ri] = gridCell{rh[ri].Txns + 1, rh[ri].FailTxns + fail}
				}
			}
			checkGrid(t, "grids.client", &a.grids.client, gc)
			checkGrid(t, "grids.server", &a.grids.server, gs)
			checkGrid(t, "conns.client", &a.conns.client, cc)
			checkGrid(t, "conns.server", &a.conns.server, cs)
			checkGrid(t, "pairs", &a.pairs.cells, pc)
			checkGrid(t, "replicas.replicaHours", &a.replicas.replicaHours, rh)
		})
	}
}

// TestMergeOrderIndependence asserts the sharded-ingest result is
// identical for any shard count and any merge order, including the
// allocated-cell count the CLIs expose as a metric.
func TestMergeOrderIndependence(t *testing.T) {
	topo := scenario.SyntheticTopology(36, 12)
	const hours = 8
	recs := synthStream(topo, hours, 200, 7)
	serial := buildState(topo, hours, recs)
	want := fingerprint(serial)
	wantCells := serial.StateCells()
	for _, shards := range []int{2, 3, 5} {
		order := make([]int, shards)
		for i := range order {
			order[i] = i
		}
		for trial := 0; trial < 3; trial++ {
			rand.New(rand.NewSource(int64(trial))).Shuffle(shards, func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
			m := buildSharded(t, topo, hours, recs, shards, order)
			if got := fingerprint(m); !reflect.DeepEqual(got, want) {
				t.Errorf("%d shards, order %v: merged artifacts differ from serial", shards, order)
				diffFingerprint(t, want, got)
			}
			if got := m.StateCells(); got != wantCells {
				t.Errorf("%d shards, order %v: StateCells = %d, want %d", shards, order, got, wantCells)
			}
		}
	}
}

// TestShardLocalPages: an accumulator fed only the clients of one shard
// range allocates no client-indexed page (client rows of the grids and
// conns passes, pair rows) lying wholly outside that range, so shard
// accumulators never hold a full-geometry copy of the state.
func TestShardLocalPages(t *testing.T) {
	topo := scenario.SyntheticTopology(40, 12)
	const hours = 6 // 6-cell client rows: pages straddle clients
	recs := synthStream(topo, hours, 60, 11)
	n := len(topo.Clients)
	for _, shards := range []int{2, 3, 5} {
		for s := 0; s < shards; s++ {
			lo, hi := measure.ShardRange(n, shards, s)
			a := NewAnalysis(topo, 0, simnet.FromHours(hours))
			for _, r := range recs {
				if c := int(r.ClientIdx); c >= lo && c < hi {
					a.Add(r)
				}
			}
			checkShardPages(t, "grids.client", &a.grids.client, hours, lo, hi)
			checkShardPages(t, "conns.client", &a.conns.client, hours, lo, hi)
			checkShardPages(t, "pairs", &a.pairs.cells, len(topo.Websites), lo, hi)
		}
	}
}

// checkShardPages asserts g allocated some pages and none that covers
// only rows (of rowLen cells) outside the client range [lo, hi).
func checkShardPages[C any](t *testing.T, name string, g *grid[C], rowLen, lo, hi int) {
	t.Helper()
	allocated := 0
	for k, p := range g.pages {
		if p == nil {
			continue
		}
		allocated++
		first, last := (k<<pageShift)/rowLen, ((k<<pageShift)+pageMask)/rowLen
		if last < lo || first >= hi {
			t.Errorf("clients [%d, %d): %s page %d (clients %d-%d) allocated outside the range",
				lo, hi, name, k, first, last)
		}
	}
	if allocated == 0 {
		t.Errorf("clients [%d, %d): %s allocated no pages", lo, hi, name)
	}
}

// diffFingerprint reports which artifact diverged, field by field, so a
// regression names the broken analysis rather than "DeepEqual failed".
func diffFingerprint(t *testing.T, want, got stateFingerprint) {
	t.Helper()
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("artifact %s differs:\n want %v\n  got %v",
				wv.Type().Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// TestTopFailingPairsMatchesFull: the bounded-top-k pair listing must
// equal a full sort of every failing pair, worst first with ties to the
// lower client and site, truncated to k.
func TestTopFailingPairsMatchesFull(t *testing.T) {
	topo := scenario.SyntheticTopology(30, 10)
	const hours = 6
	a := buildState(topo, hours, synthStream(topo, hours, 150, 3))
	var full []PairFailCount
	for c := range topo.Clients {
		for s := range topo.Websites {
			if fails := a.pairs.cells.val(c*a.nSites + s).Fails; fails > 0 {
				full = append(full, PairFailCount{Client: c, Site: s, Fails: fails})
			}
		}
	}
	slices.SortStableFunc(full, func(x, y PairFailCount) int { return cmp.Compare(y.Fails, x.Fails) })
	if len(full) < 3 {
		t.Fatalf("synthetic stream produced only %d failing pairs; want more for a meaningful test", len(full))
	}
	for _, k := range []int{0, 1, 3, len(full), len(full) + 5} {
		got := a.TopFailingPairs(k)
		want := full[:min(k, len(full))]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("TopFailingPairs(k=%d) = %+v, want %+v", k, got, want)
		}
	}
}

// TestRandomPairSimilarityBounded: on a roster where every eligible
// pair is co-located (one site), the rejection-sampling loop can never
// find a pair — it must bail out deterministically instead of spinning
// forever (the pre-fix behavior).
func TestRandomPairSimilarityBounded(t *testing.T) {
	topo := scenario.SyntheticTopology(4, 2) // 4 clients, all on one site
	a := buildState(topo, 2, nil)
	at := &Attribution{
		ClientEpisodeHours: make([]HourSet, len(topo.Clients)),
		ServerEpisodeHours: make([]HourSet, len(topo.Websites)),
	}
	done := make(chan SimilarityTable, 1)
	go func() { done <- a.RandomPairSimilarity(at, 1, 10) }()
	select {
	case out := <-done:
		if out.Pairs != 0 {
			t.Errorf("got %d pairs from an all-co-located roster, want 0", out.Pairs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RandomPairSimilarity did not terminate on an all-co-located roster")
	}
	// Sanity: a mixed roster still fills the requested count.
	topo2 := scenario.SyntheticTopology(12, 2)
	a2 := buildState(topo2, 2, nil)
	at2 := &Attribution{
		ClientEpisodeHours: make([]HourSet, len(topo2.Clients)),
		ServerEpisodeHours: make([]HourSet, len(topo2.Websites)),
	}
	if out := a2.RandomPairSimilarity(at2, 1, 5); out.Pairs != 5 {
		t.Errorf("mixed roster: got %d pairs, want 5", out.Pairs)
	}
}

// TestPairCellInt64: the per-pair counters must carry counts past the
// int32 range a month-long mega-roster run can exceed (satellite fix:
// they were int32).
func TestPairCellInt64(t *testing.T) {
	p := newPairsPass(1, 1)
	cell := p.cells.mut(0)
	cell.Txns = math.MaxInt32
	cell.Fails = math.MaxInt32
	r := &measure.Record{Stage: httpsim.StageTCP, Conns: 1}
	p.consume(r)
	if cell.Txns != math.MaxInt32+1 || cell.Fails != math.MaxInt32+1 {
		t.Errorf("pair cell after overflow-boundary consume = %d/%d, want %d", cell.Txns, cell.Fails, int64(math.MaxInt32)+1)
	}
	// Merge must also carry int64 sums.
	q := newPairsPass(1, 1)
	qc := q.cells.mut(0)
	qc.Txns = math.MaxInt32
	p.merge(q)
	if want := int64(math.MaxInt32)*2 + 1; cell.Txns != want {
		t.Errorf("merged pair txns = %d, want %d", cell.Txns, want)
	}
}
