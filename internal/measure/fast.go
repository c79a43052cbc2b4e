package measure

import (
	"math/rand"
	"net/netip"
	"time"

	"webfail/internal/faults"
	"webfail/internal/httpsim"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// Run executes the experiment in fast mode, calling visit once per
// performed transaction (transactions scheduled while the client machine
// is off are skipped entirely, as an off machine makes no accesses —
// Section 4.4.4). Records are delivered in per-client time order; visit
// must not retain the pointer. It is RunParallel on one shard.
func Run(cfg Config, visit func(*Record)) error {
	return RunParallel(cfg, 1, func(_ int, r *Record) { visit(r) })
}

// evaluator holds the per-shard state of fast-mode evaluation. It queries
// the timeline through the run's shared entity table, counts into its
// shard's census, and reuses the scratch buffers below across
// transactions, so evaluate performs zero heap allocations in steady
// state.
type evaluator struct {
	cfg  Config
	topo *workload.Topology
	tl   *faults.Timeline
	ids  *workload.EntityTable
	// lo is the shard's first client: the per-client slices below cover
	// the shard's range [lo, hi) and are indexed by ci - lo.
	lo int
	// One RNG per client, seeded from the client's global index, so
	// roster scaling and shard layout do not perturb other clients'
	// draws.
	rngs []*rand.Rand

	// quality is the per-client site-flakiness multiplier; it scales
	// background loss and transient failures so flaky sites show both
	// (the weak loss/failure correlation of Section 4.1.3).
	quality []float64

	// Base RTT by region pair, so sampleRTT compares no region strings:
	// rtt[cliRow[ci-lo]+wwwRegion[si]] is regionRTT of client ci's and
	// website si's regions. cliRow holds each shard client's region
	// index times the region count.
	rtt       []time.Duration
	cliRow    []int32
	wwwRegion []int32

	// Per-evaluator scratch, reused across transactions (the evaluator
	// is single-goroutine; RunParallel builds one per shard).
	pfxBuf []faults.EntityID // prefix entities touched by one transaction
	epBuf  []faults.Episode  // ActiveAnyIntoID target
	// repDownGen is the generation-counted "replica down" set replacing
	// a per-transaction map: position k (in rotated address order) is
	// down iff repDownGen[k] == gen for the current transaction.
	repDownGen []uint64
	gen        uint64

	// census is the shard's work count, which the driver folds when
	// the shard is done. episodes is fast mode's own counter: fault
	// episodes scanned by prefix-entity queries.
	census   *census
	episodes int64

	// tr, when non-nil, collects span-tree exemplars into the shard's
	// sink; every recording hook costs one nil check when tracing is
	// off.
	tr *traceShard
	// Per-transaction blame scratch for the tracer: which ground-truth
	// episode each phase's outcome traces back to.
	trConnCause traceCause
	trDNSCause  traceCause
	trHTTPCause traceCause
}

// newEvaluator builds one shard's evaluator over the shard's client
// range, entity table, census and exemplar sink.
func newEvaluator(cfg Config, sh *shard) *evaluator {
	topo := cfg.Topo
	n := sh.hi - sh.lo
	ev := &evaluator{
		cfg:     cfg,
		topo:    topo,
		tl:      cfg.Scenario.Timeline,
		ids:     sh.ids,
		lo:      sh.lo,
		rngs:    make([]*rand.Rand, n),
		quality: make([]float64, n),
		census:  &sh.census,
	}
	if sh.trace != nil {
		ev.tr = newTraceShard(sh.trace, n)
	}
	for i := sh.lo; i < sh.hi; i++ {
		c := &topo.Clients[i]
		ev.rngs[i-sh.lo] = rand.New(rand.NewSource(cfg.Seed ^ 0x5b5e1ca7 ^ int64(i)*0x100000001b3))
		q := 1.0
		if f, ok := cfg.Scenario.SiteQuality[c.Site]; ok {
			q = f
		}
		ev.quality[i-sh.lo] = q
	}
	ev.buildRTT(sh.lo, sh.hi)
	maxRep := 1
	for j := range topo.Websites {
		maxRep = max(maxRep, len(topo.Websites[j].ReplicaAddrs))
	}
	ev.pfxBuf = make([]faults.EntityID, 0, maxRep+1)
	ev.epBuf = make([]faults.Episode, 0, 8)
	ev.repDownGen = make([]uint64, maxRep)
	return ev
}

// buildRTT fills the region-pair RTT table for the shard's clients
// [lo, hi) and every website, numbering regions as they first appear.
func (ev *evaluator) buildRTT(lo, hi int) {
	region := map[string]int32{}
	index := func(r string) int32 {
		i, ok := region[r]
		if !ok {
			i = int32(len(region))
			region[r] = i
		}
		return i
	}
	ev.wwwRegion = make([]int32, len(ev.topo.Websites))
	for j := range ev.wwwRegion {
		ev.wwwRegion[j] = index(ev.topo.Websites[j].Region)
	}
	ev.cliRow = make([]int32, hi-lo)
	for i := range ev.cliRow {
		ev.cliRow[i] = index(ev.topo.Clients[lo+i].Region)
	}
	n := int32(len(region))
	for i := range ev.cliRow {
		ev.cliRow[i] *= n
	}
	ev.rtt = make([]time.Duration, n*n)
	for ra, a := range region {
		for rb, b := range region {
			ev.rtt[a*n+b] = regionRTT(ra, rb)
		}
	}
}

// hit draws whether an active episode's severity fires; nil (no
// episode) never does. hit inlines, so the nil answer most queries get
// costs no call; scripts/verify.sh fails if it stops inlining.
func hit(rng *rand.Rand, ep *faults.Episode) bool {
	return ep != nil && fires(rng, ep)
}

// fires draws whether an episode fails the operation: always at
// severity 1, otherwise with probability Severity on one draw.
func fires(rng *rand.Rand, ep *faults.Episode) bool {
	return ep.Severity >= 1 || rng.Float64() < ep.Severity
}

// pathImpact maps a BGP instability episode to the probability that a
// packet exchange through the affected prefix fails. Near-global
// withdrawals leave almost no working path; the special high-impact mode
// reproduces the Figure 7 case (2 withdrawing neighbors carrying most
// paths, observed 56% failure); small local events barely matter.
func pathImpact(ep *faults.Episode) float64 {
	if ep.Mode == workload.BGPHighImpact {
		return 0.56
	}
	if ep.Severity >= 0.9 {
		return 0.88
	}
	return ep.Severity * 0.5
}

// evaluate runs one transaction, filling rec and counting it in the
// shard's census. It reports false when the client machine is off (no
// access performed).
func (ev *evaluator) evaluate(tx *workload.Transaction, rec *Record) bool {
	performed := ev.evaluateTx(tx, rec)
	c := ev.census
	if performed {
		class := ClassOf(rec)
		c.performed(rec, class, fastTxnLatency(rec))
		if ev.tr != nil {
			ev.traceFinish(rec, class)
		}
	} else {
		c.skipped++
	}
	c.prog.Tick()
	return performed
}

// evaluateTx evaluates one transaction without touching the counters.
func (ev *evaluator) evaluateTx(tx *workload.Transaction, rec *Record) bool {
	ci, si := tx.ClientIdx, tx.SiteIdx
	c := &ev.topo.Clients[ci]
	w := &ev.topo.Websites[si]
	rng := ev.rngs[ci-ev.lo]
	tl := ev.tl
	at := tx.At

	if tl.ActiveID(ev.ids.Client[ci], faults.ClientMachineOff, at) != nil {
		return false
	}

	*rec = Record{
		ClientIdx: int32(ci),
		SiteIdx:   int32(si),
		At:        at,
		Category:  c.Category,
		Proxied:   c.Proxied,
	}
	if ev.tr != nil {
		// Reset the attempt scratch and per-phase causes; every other
		// span rebuilds from the Record if the transaction is kept.
		ev.tr.attempts = ev.tr.attempts[:0]
		ev.trConnCause, ev.trDNSCause, ev.trHTTPCause = noCause, noCause, noCause
	}

	// --- Client-side connectivity state (used by both DNS and TCP). ---
	siteConn := tl.ActiveID(ev.ids.Site[ci], faults.ClientConnectivity, at)
	cliConn := tl.ActiveID(ev.ids.Client[ci], faults.ClientConnectivity, at)
	// Drawing siteHit first preserves the original short-circuit RNG
	// sequence while exposing which end caused the loss.
	siteHit := hit(rng, siteConn)
	connectivityDown := siteHit || hit(rng, cliConn)
	if ev.tr != nil && connectivityDown {
		if siteHit {
			ev.trConnCause = traceCause{ent: ev.ids.Site[ci], kind: faults.ClientConnectivity}
		} else {
			ev.trConnCause = traceCause{ent: ev.ids.Client[ci], kind: faults.ClientConnectivity}
		}
	}

	// --- DNS phase (direct clients only; the proxy resolves for CN). ---
	if !c.Proxied {
		rec.DNS, rec.DNSTime = ev.resolveDNS(rng, ci, si, at, connectivityDown)
		if rec.DNS != DNSOK {
			rec.Stage = httpsim.StageDNS
			rec.Elapsed = rec.DNSTime
			return true
		}
	} else {
		rec.DNS = DNSMasked
		// The proxy's own resolution can fail (rarely; its cache
		// masks most DNS trouble). Surfaced as a gateway error.
		if ev.proxyDNSFails(rng, si, at) {
			rec.Stage = httpsim.StageHTTP
			rec.StatusCode = 502
			rec.Conns = 1 // the client did connect to the proxy
			rec.ReplicaIP = c.Proxy
			rec.Elapsed = ev.sampleRTT(rng, ci, si, c) + 11*time.Second
			return true
		}
	}

	// --- Replica selection. ---
	addrs, off, n := ev.replicaAddrs(rng, w)

	// --- TCP/HTTP phase. ---
	ev.download(rng, rec, c, w, addrs, off, n, at, connectivityDown)
	return true
}

// resolveDNS evaluates the DNS phase for a direct client.
func (ev *evaluator) resolveDNS(rng *rand.Rand, ci, si int, at simnet.Time, connectivityDown bool) (DNSOutcome, time.Duration) {
	tl := ev.tl
	p := &ev.cfg.Scenario.Params

	// Client-side connectivity loss: the LDNS is unreachable, so the
	// failure surfaces as an LDNS timeout (the paper's dominant class —
	// this is the mechanism behind Section 4.4.4's observation that
	// client problems preclude TCP attempts).
	if connectivityDown {
		ev.trDNSCause = ev.trConnCause
		return DNSLDNSTimeout, stubTimeoutTotal
	}
	// LDNS server trouble (site-scoped: co-located clients share it).
	if hit(rng, tl.ActiveID(ev.ids.Site[ci], faults.LDNSOutage, at)) {
		if ev.tr != nil {
			ev.trDNSCause = traceCause{ent: ev.ids.Site[ci], kind: faults.LDNSOutage}
		}
		return DNSLDNSTimeout, stubTimeoutTotal
	}
	// Authoritative DNS misconfiguration: definitive error response.
	if hit(rng, tl.ActiveID(ev.ids.Website[si], faults.AuthDNSMisconfig, at)) {
		if ev.tr != nil {
			ev.trDNSCause = traceCause{ent: ev.ids.Website[si], kind: faults.AuthDNSMisconfig}
		}
		return DNSErrorResponse, ev.sampleDNSTime(rng) + 50*time.Millisecond
	}
	// Authoritative DNS unreachable: the LDNS keeps retrying past the
	// stub's patience — a non-LDNS timeout.
	if hit(rng, tl.ActiveID(ev.ids.Website[si], faults.AuthDNSOutage, at)) {
		if ev.tr != nil {
			ev.trDNSCause = traceCause{ent: ev.ids.Website[si], kind: faults.AuthDNSOutage}
		}
		return DNSNonLDNSTimeout, stubTimeoutTotal
	}
	// Transient lookup failures, split toward the LDNS class as in
	// Table 4's residuals.
	if rng.Float64() < p.TransientDNSFail {
		if ev.tr != nil {
			ev.trDNSCause = traceCause{ent: faults.NoEntity, transient: true}
		}
		if rng.Float64() < 0.55 {
			return DNSLDNSTimeout, stubTimeoutTotal
		}
		return DNSNonLDNSTimeout, stubTimeoutTotal
	}
	return DNSOK, ev.sampleDNSTime(rng)
}

// stubTimeoutTotal is the stub resolver's full retry schedule (3+3+5 s),
// the elapsed time of a timed-out lookup.
const stubTimeoutTotal = 11 * time.Second

// proxyDNSFails models the (cache-shielded) proxy-side resolution.
func (ev *evaluator) proxyDNSFails(rng *rand.Rand, si int, at simnet.Time) bool {
	tl := ev.tl
	// Only a hard authoritative outage that outlives the proxy cache
	// TTL is visible; model as a strongly discounted probability.
	if ep := tl.ActiveID(ev.ids.Website[si], faults.AuthDNSOutage, at); ep != nil {
		if ev.tr != nil {
			ev.trDNSCause = traceCause{ent: ev.ids.Website[si], kind: faults.AuthDNSOutage}
		}
		return rng.Float64() < ep.Severity*0.15
	}
	if ep := tl.ActiveID(ev.ids.Website[si], faults.AuthDNSMisconfig, at); ep != nil {
		if ev.tr != nil {
			ev.trDNSCause = traceCause{ent: ev.ids.Website[si], kind: faults.AuthDNSMisconfig}
		}
		return rng.Float64() < ep.Severity*0.15
	}
	return false
}

// replicaAddrs picks the addresses a client's wget would try, in order,
// as a rotation of a shared list: the k-th address tried is
// list[(off+k)%len(list)], for k < n. Authoritative servers rotate
// multi-A answers round-robin (the standard BIND behaviour), so the
// starting replica varies per lookup and every replica carries a fair
// connection share — the premise of the Section 4.5 replica census; the
// list is the website's replica list, whose positions are also those of
// its precomputed per-replica handles. A CDN site gives one address
// drawn from the CDN pool, which has no replica identity.
func (ev *evaluator) replicaAddrs(rng *rand.Rand, w *workload.WebsiteNode) (list []netip.Addr, off, n int) {
	n = len(w.ReplicaAddrs)
	switch n {
	case 0:
		pool := ev.topo.CDNPool
		return pool, rng.Intn(len(pool)), 1
	case 1:
		return w.ReplicaAddrs, 0, 1
	}
	return w.ReplicaAddrs, rng.Intn(n), n
}

// download evaluates the TCP/HTTP phase, mirroring httpsim.Client's
// semantics: try each of the n addresses replicaAddrs picked in order,
// then retry the whole list (wget tries=2); the proxy tries only the
// first address and never fails over.
//
// Fault states are drawn ONCE per transaction, not per attempt: fault
// episodes persist far longer than the seconds a transaction's retries
// span, so a flaky component that fails the first attempt fails the
// retries too. (Per-attempt independence would make multi-replica sites
// artificially immune to fractional-severity faults.)
func (ev *evaluator) download(rng *rand.Rand, rec *Record, c *workload.ClientNode, w *workload.WebsiteNode, addrs []netip.Addr, off, n int, at simnet.Time, connectivityDown bool) {
	tl := ev.tl
	p := &ev.cfg.Scenario.Params
	const tries = 2
	si := rec.SiteIdx
	rtt := ev.sampleRTT(rng, int(rec.ClientIdx), int(si), c)
	const synFailTime = 21 * time.Second

	if c.Proxied {
		n = 1
	}
	// Only a replica list maps positions to per-replica handles; a CDN
	// pool address has none.
	replicas := len(w.ReplicaAddrs) > 0

	// --- Per-transaction fault state. ---
	var (
		blocked      bool
		blockMode    uint8
		wwwDown      bool
		overload     bool
		overloadMode uint8
		pathDown     = connectivityDown
	)
	// New generation: the replica-down set from the previous transaction
	// expires without clearing anything.
	ev.gen++
	repID, repPfx := ev.ids.Replica[si], ev.ids.ReplicaPrefix[si]

	// Blame scratch for the tracer: which ground-truth episode each
	// fault flag traces back to. Locals cost nothing when tracing is
	// off; the precedence below mirrors the attempt switch's case order.
	var causeBlocked, causePath, causeWWW, causeOverload traceCause
	causePath = ev.trConnCause
	causeTransient := traceCause{ent: faults.NoEntity, transient: true}

	pairID := ev.ids.Pair(int(rec.ClientIdx), int(si))
	if ep := tl.ActiveID(pairID, faults.PermanentBlock, at); hit(rng, ep) {
		blocked = true
		blockMode = ep.Mode
		causeBlocked = traceCause{ent: pairID, kind: faults.PermanentBlock}
	}
	// BGP instability / path outages on either end's prefix. The prefix
	// handle list (client prefix first, then each tried address's prefix
	// in rotated order, duplicates preserved — every occurrence draws
	// independently, as a multi-homed path would) builds in a reused
	// scratch buffer.
	pfxIDs := append(ev.pfxBuf[:0], ev.ids.ClientPrefix[rec.ClientIdx])
	if replicas {
		for k := range n {
			if id := repPfx[(off+k)%len(repPfx)]; id != faults.NoEntity {
				pfxIDs = append(pfxIDs, id)
			}
		}
	}
	ev.pfxBuf = pfxIDs
	for _, id := range pfxIDs {
		// One all-kind scan per prefix feeds both checks.
		ev.epBuf = tl.ActiveAnyIntoID(id, at, ev.epBuf[:0])
		ev.episodes += int64(len(ev.epBuf))
		if ep := mostSevere(ev.epBuf, faults.BGPInstability); ep != nil && rng.Float64() < pathImpact(ep) {
			if !pathDown {
				causePath = traceCause{ent: id, kind: faults.BGPInstability}
			}
			pathDown = true
		}
		if hit(rng, mostSevere(ev.epBuf, faults.PathOutage)) {
			if !pathDown {
				causePath = traceCause{ent: id, kind: faults.PathOutage}
			}
			pathDown = true
		}
	}
	if hit(rng, tl.ActiveID(ev.ids.Website[si], faults.ServerOutage, at)) {
		wwwDown = true
		causeWWW = traceCause{ent: ev.ids.Website[si], kind: faults.ServerOutage}
	}
	if replicas {
		for k := range n {
			if hit(rng, tl.ActiveID(repID[(off+k)%len(repID)], faults.ServerOutage, at)) {
				ev.repDownGen[k] = ev.gen
			}
		}
	}
	if ep := tl.ActiveID(ev.ids.Website[si], faults.ServerOverload, at); hit(rng, ep) {
		overload = true
		overloadMode = ep.Mode
		causeOverload = traceCause{ent: ev.ids.Website[si], kind: faults.ServerOverload}
	}
	// Transient connection-level failure: a short glitch that a
	// 20-second retry sequence does not outlive. Flakier client sites
	// see proportionally more of them. Most are failed handshakes, but
	// a share shows up after the handshake (lost response, broken
	// transfer) matching Figure 3's no-response/partial tail.
	transientConn := false
	transientKind := httpsim.NoConnection
	q := ev.quality[int(rec.ClientIdx)-ev.lo]
	if q > 3 {
		q = 3
	}
	if rng.Float64() < p.TransientConnFail*(0.6+q*0.4) {
		transientConn = true
		transientKind = transientKindFor(rng, c.Category)
	}

	tracing := ev.tr != nil

	var elapsed time.Duration
	for try := 0; try < tries; try++ {
		for k := range n {
			addr := addrs[(off+k)%len(addrs)]
			rec.Conns++
			rec.ReplicaIP = addr
			before := elapsed

			switch {
			case blocked && blockMode == workload.BlockPartial:
				rec.Bytes += int32(rng.Intn(4096))
				rec.DataPkts += int16(2 + rng.Intn(4))
				rec.Retransmits += int16(1 + rng.Intn(8))
				rec.FailKind = httpsim.PartialResponse
				elapsed += 60 * time.Second
				if tracing {
					ev.tr.attempt(addr, before, elapsed, "partial-response", causeBlocked)
				}
				continue
			case blocked, pathDown, wwwDown, replicas && ev.repDownGen[k] == ev.gen:
				rec.FailKind = httpsim.NoConnection
				elapsed += synFailTime
				if tracing {
					// Blame precedence mirrors the case condition order.
					cause := causeBlocked
					switch {
					case blocked:
					case pathDown:
						cause = causePath
					case wwwDown:
						cause = causeWWW
					default:
						cause = traceCause{ent: repID[(off+k)%len(repID)], kind: faults.ServerOutage}
					}
					ev.tr.attempt(addr, before, elapsed, "no-connection", cause)
				}
				continue
			case transientConn && transientKind == httpsim.NoConnection:
				rec.FailKind = httpsim.NoConnection
				elapsed += synFailTime
				if tracing {
					ev.tr.attempt(addr, before, elapsed, "no-connection", causeTransient)
				}
				continue
			case transientConn:
				rec.FailKind = transientKind
				if transientKind == httpsim.PartialResponse {
					rec.Bytes += int32(w.IndexSize / 3)
					rec.DataPkts += int16(w.IndexSize / 3 / 1460)
					rec.Retransmits += int16(1 + rng.Intn(4))
				}
				elapsed += 60 * time.Second
				if tracing {
					ev.tr.attempt(addr, before, elapsed, transientKind.String(), causeTransient)
				}
				continue
			}

			// Connected. Server application health.
			if overload {
				switch overloadMode {
				case workload.OverloadStall, workload.OverloadAbort:
					rec.Bytes += int32(w.IndexSize / 2)
					rec.DataPkts += int16(w.IndexSize / 2 / 1460)
					rec.Retransmits += int16(rng.Intn(3))
					rec.FailKind = httpsim.PartialResponse
					if overloadMode == workload.OverloadAbort {
						elapsed += 2*rtt + 500*time.Millisecond
					} else {
						elapsed += 60 * time.Second
					}
				default: // OverloadHung
					rec.FailKind = httpsim.NoResponse
					elapsed += 60 * time.Second
				}
				if tracing {
					ev.tr.attempt(addr, before, elapsed, rec.FailKind.String(), causeOverload)
				}
				continue
			}

			// Successful transfer: account packets and sampled
			// baseline loss.
			pkts := w.IndexSize/1460 + 2
			rec.DataPkts += int16(pkts)
			lossQ := ev.quality[int(rec.ClientIdx)-ev.lo]
			if lossQ > 2.5 {
				lossQ = 2.5
			}
			loss := (0.004 + rng.Float64()*0.012) * (0.75 + 0.25*lossQ)
			for i := 0; i < pkts; i++ {
				if rng.Float64() < loss {
					rec.Retransmits++
				}
			}
			elapsed += 2*rtt + time.Duration(float64(rtt)*float64(pkts)/8) +
				time.Duration(rng.Int63n(int64(200*time.Millisecond)))
			ev.httpPhase(rng, rec, w, at)
			rec.Elapsed = elapsed
			if tracing {
				ev.tr.attempt(addr, before, elapsed, "connected", noCause)
			}
			return
		}
	}
	rec.Stage = httpsim.StageTCP
	if rec.FailKind == httpsim.ConnOK {
		rec.FailKind = httpsim.NoConnection
	}
	rec.Elapsed = elapsed
}

// httpPhase decides the HTTP outcome of a completed transfer.
func (ev *evaluator) httpPhase(rng *rand.Rand, rec *Record, w *workload.WebsiteNode, at simnet.Time) {
	p := &ev.cfg.Scenario.Params
	if hit(rng, ev.tl.ActiveID(ev.ids.Website[rec.SiteIdx], faults.ServerHTTPError, at)) {
		rec.Stage = httpsim.StageHTTP
		rec.StatusCode = 503
		if ev.tr != nil {
			ev.trHTTPCause = traceCause{ent: ev.ids.Website[rec.SiteIdx], kind: faults.ServerHTTPError}
		}
		return
	}
	if rng.Float64() < p.TransientHTTPErr {
		rec.Stage = httpsim.StageHTTP
		rec.StatusCode = 404
		if ev.tr != nil {
			ev.trHTTPCause = traceCause{ent: faults.NoEntity, transient: true}
		}
		return
	}
	rec.Stage = httpsim.StageNone
	rec.StatusCode = 200
	rec.Bytes += int32(w.IndexSize)
	rec.FailKind = httpsim.ConnOK
}

// transientKindFor draws the failure kind of a transient connection
// failure. The mix is category-specific, reproducing Figure 3: SYN losses
// dominate on academic paths (PL 79% no-connection), while consumer
// broadband shows proportionally more response-phase failures (BB 41%
// no-connection) — last-mile asymmetries bite after the handshake.
func transientKindFor(rng *rand.Rand, cat workload.Category) httpsim.ConnFailKind {
	var noConn, noResp float64
	switch cat {
	case workload.BB:
		noConn, noResp = 0.18, 0.45
	case workload.DU:
		noConn, noResp = 0.46, 0.32
	default: // PL, CN
		noConn, noResp = 0.60, 0.24
	}
	switch v := rng.Float64(); {
	case v < noConn:
		return httpsim.NoConnection
	case v < noConn+noResp:
		return httpsim.NoResponse
	default:
		return httpsim.PartialResponse
	}
}

// mostSevere points at the most severe episode of the given kind in an
// ActiveAnyIntoID result, or is nil when there is none; severity ties go
// to the earliest-listed episode — the same winner Timeline.ActiveID
// picks, since both visit episodes in start-sorted insertion-stable order.
func mostSevere(eps []faults.Episode, kind faults.Kind) *faults.Episode {
	var best *faults.Episode
	for i := range eps {
		if eps[i].Kind == kind && (best == nil || eps[i].Severity > best.Severity) {
			best = &eps[i]
		}
	}
	return best
}

// sampleDNSTime draws a successful lookup latency: tens of milliseconds,
// heavy-tailed.
func (ev *evaluator) sampleDNSTime(rng *rand.Rand) time.Duration {
	base := 15 + rng.ExpFloat64()*60
	if base > 2000 {
		base = 2000
	}
	return time.Duration(base * float64(time.Millisecond))
}

// sampleRTT draws the round-trip time between client ci (c) and website
// si from their region pair's base RTT.
func (ev *evaluator) sampleRTT(rng *rand.Rand, ci, si int, c *workload.ClientNode) time.Duration {
	base := ev.rtt[ev.cliRow[ci-ev.lo]+ev.wwwRegion[si]]
	jitter := time.Duration(rng.Int63n(int64(base/4) + 1))
	extra := time.Duration(0)
	if c.Category == workload.DU {
		extra = 120 * time.Millisecond // modem latency
	}
	return base + jitter + extra
}

// regionRTT is the baseline RTT between coarse regions, the entries of
// the evaluator's region-pair table.
func regionRTT(a, b string) time.Duration {
	if a == b {
		return 25 * time.Millisecond
	}
	intl := func(r string) bool { return r == "europe" || r == "asia" }
	switch {
	case intl(a) && intl(b):
		return 250 * time.Millisecond
	case intl(a) || intl(b):
		return 150 * time.Millisecond
	default:
		return 70 * time.Millisecond // cross-US
	}
}
