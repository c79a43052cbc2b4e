package measure

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"webfail/internal/dnssim"
	"webfail/internal/faults"
	"webfail/internal/httpsim"
	"webfail/internal/obs"
	"webfail/internal/simnet"
	"webfail/internal/tcpsim"
	"webfail/internal/trace"
	"webfail/internal/workload"
)

// RunPacket executes the experiment in packet mode: a full simulated
// internet (DNS hierarchy, TCP stacks, HTTP servers, proxies) is built
// from the topology, fault episodes drive component statuses and path
// conditions, and every transaction performs the real Section 3.4
// procedure — flush the LDNS cache, wget the URL, run an iterative dig on
// DNS failure. Intended for validation at reduced scale; fast mode covers
// the month-scale run.
//
// Records are delivered in canonical order: by client index, and within a
// client in completion order. This is the same total order RunPacketParallel
// produces when its shard streams are concatenated in shard order, so the
// two entry points are byte-identical for any shard count.
func RunPacket(cfg Config, visit func(*Record)) error {
	return runPacketSharded(cfg, 1, nil, func(_ int, r *Record) { visit(r) }, nil)
}

// RunPacketParallel executes packet mode across shards worker goroutines,
// partitioning the client roster into contiguous index ranges like
// RunParallel. Each worker owns a private Network+Scheduler world holding
// the full server side plus its own client sites, which is sound because
// the world is partitionable by construction: client hosts, LDNS, and
// proxies are per-site, server state is status-function-pure, and every
// random draw (component status, packet loss) comes from a per-client
// stream selected by the scheduler's causal context. Shard boundaries snap
// to client-site boundaries so co-located clients (who share an LDNS cache
// and proxy) never split across workers; the effective worker count may
// therefore be lower than requested.
//
// visit is called after all workers finish, sequentially, in shard order
// with each shard's records in canonical (client-major) order — the
// concatenated stream is byte-identical to a serial RunPacket. visit must
// not retain the Record pointer. shards <= 0 selects GOMAXPROCS.
func RunPacketParallel(cfg Config, shards int, visit func(shard int, r *Record)) error {
	return runPacketSharded(cfg, shards, nil, visit, nil)
}

// CaptureResult hands back one monitored client's full packet trace
// analysis after a packet-mode run.
type CaptureResult struct {
	Client string
	Flows  map[trace.Flow]*trace.FlowStats
	// Packets is the raw capture size.
	Packets int
}

// RunPacketWithCapture is RunPacket plus tcpdump-style captures on the
// named clients (Section 3.4 step 4). After the run, each monitored
// client's capture is post-processed into per-flow TCP statistics
// (Section 3.5) and delivered through onCapture in the order the names
// were given — letting callers check that the trace-derived failure
// classification agrees with what the client itself observed, exactly the
// redundancy the paper's methodology builds in. A name that matches no
// roster client is an error, not a silent no-op.
func RunPacketWithCapture(cfg Config, clients []string, visit func(*Record), onCapture func(CaptureResult)) error {
	return runPacketSharded(cfg, 1, clients, func(_ int, r *Record) { visit(r) }, onCapture)
}

// packetShardBounds partitions the roster into at most shards contiguous
// ranges whose boundaries coincide with site boundaries (the topology
// builds each site's clients contiguously). Returns the boundary list
// [0, b1, ..., n]; every range is non-empty.
func packetShardBounds(topo *workload.Topology, shards int) []int {
	n := len(topo.Clients)
	var starts []int // index where each site's client run begins, excluding 0
	for i := 1; i < n; i++ {
		if topo.Clients[i].Site != topo.Clients[i-1].Site {
			starts = append(starts, i)
		}
	}
	bounds := []int{0}
	for s := 1; s < shards; s++ {
		target := s * n / shards
		j := sort.SearchInts(starts, target)
		b := n
		if j < len(starts) {
			b = starts[j]
		}
		if b > bounds[len(bounds)-1] && b < n {
			bounds = append(bounds, b)
		}
	}
	return append(bounds, n)
}

// packetShardResult is one worker's buffered output.
type packetShardResult struct {
	recs    [][]Record // by shard-local client index, completion order
	caps    map[string]CaptureResult
	virtual time.Duration
}

// runPacketSharded is the single core behind every packet-mode entry
// point: it validates the config and capture names, clamps the shard
// count and partitions the roster at site boundaries, runs one world per
// shard through the shard driver, and emits the buffered records in
// canonical client-major order.
func runPacketSharded(cfg Config, shards int, captureClients []string, visit func(shard int, r *Record), onCapture func(CaptureResult)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, name := range captureClients {
		if cfg.Topo.ClientByName(name) == nil {
			return fmt.Errorf("measure: capture client %q not in roster", name)
		}
	}
	bounds := packetShardBounds(cfg.Topo, EffectiveShards(len(cfg.Topo.Clients), shards))
	outs := make([]packetShardResult, len(bounds)-1)

	wallStart := time.Now()
	if err := runShards(cfg, bounds, func(sh *shard) {
		outs[sh.index] = runPacketShard(cfg, sh, captureClients)
	}); err != nil {
		return err
	}

	if reg := cfg.Metrics; reg != nil {
		// Virtual-vs-wall speed of the discrete-event simulation: how
		// many simulated seconds each real second buys. Wall-clock by
		// construction.
		var virtual time.Duration
		for i := range outs {
			if outs[i].virtual > virtual {
				virtual = outs[i].virtual
			}
		}
		if wall := time.Since(wallStart); wall > 0 {
			reg.WallGauge("simnet_virtual_wall_ratio").Set(virtual.Seconds() / wall.Seconds())
		}
	}

	for s := range outs {
		for _, recs := range outs[s].recs {
			for i := range recs {
				visit(s, &recs[i])
			}
		}
	}
	if onCapture != nil {
		for _, name := range captureClients {
			for s := range outs {
				if cr, ok := outs[s].caps[name]; ok {
					onCapture(cr)
					break
				}
			}
		}
	}
	return nil
}

// runPacketShard builds and runs one shard's world over its client
// range, counting into the shard's census. The shard's transactions
// feed the simulation as an input stream sorted by start time; the sort
// is stable, so transactions that start at the same instant keep the
// workload's client-major order. Scheduler.RunBefore runs every event
// due before a transaction's instant, so the transaction starts ahead of
// every event queued for that instant. Records, exemplars and goldens
// depend on that order.
func runPacketShard(cfg Config, sh *shard, captureClients []string) packetShardResult {
	w := buildWorld(cfg, sh)

	caps := make(map[string]*trace.Capture)
	for _, name := range captureClients {
		for _, ch := range w.clients {
			if ch.node.Name == name {
				c := &trace.Capture{}
				c.Attach(ch.host)
				caps[name] = c
			}
		}
	}

	out := packetShardResult{recs: make([][]Record, sh.hi-sh.lo)}
	c := &sh.census
	w.visit = func(r *Record) {
		// Packet-mode Elapsed is already end-to-end (wget wall time,
		// DNS included).
		c.performed(r, ClassOf(r), r.Elapsed)
		ci := int(r.ClientIdx) - sh.lo
		out.recs[ci] = append(out.recs[ci], *r)
	}

	var txns []workload.Transaction
	workload.ForEachTransactionRange(cfg.Topo, cfg.Seed, cfg.Start, cfg.End, sh.lo, sh.hi, func(tx *workload.Transaction) {
		txns = append(txns, *tx)
	})
	sort.SliceStable(txns, func(i, j int) bool { return txns[i].At < txns[j].At })
	sched := w.net.Sched
	for i := range txns {
		tx := &txns[i]
		sched.RunBefore(tx.At)
		// Every event the transaction transitively schedules inherits
		// the client's causal context, which routes all of its random
		// draws to the client's own stream.
		sched.SetContext(int32(tx.ClientIdx))
		if !w.runTransaction(tx) {
			c.skipped++
		}
		c.prog.Tick()
	}
	sched.Run()
	out.virtual = sched.Now().Sub(cfg.Start)
	// A transaction start is a step of the simulation too: it counts as
	// one dispatched event.
	cfg.Metrics.Counter("simnet_events_dispatched_total").Add(int64(sched.Dispatched()) + int64(len(txns)))

	if len(caps) > 0 {
		out.caps = make(map[string]CaptureResult, len(caps))
		for name, c := range caps {
			pkts := c.Packets()
			out.caps[name] = CaptureResult{
				Client:  name,
				Flows:   trace.AnalyzeTCP(pkts),
				Packets: len(pkts),
			}
		}
		w.annotateFlowSpans(out.caps)
	}
	return out
}

// addrInfo is the fault-entity view of one simulated host, taken from
// the run's entity table when the world adds the host, so the per-packet
// path function reads both ends by host ID and makes a handful of
// array-indexed ActiveID queries: no map probe, no string building, no
// string hashing.
type addrInfo struct {
	siteEnt faults.EntityID // the client site of a client-side addr
	pfxEnt  faults.EntityID // the prefix covering the addr
	client  int32           // a client of the addr's site, -1 if none
	wwwIdx  int32           // website index, -1 if not server-side
	isDNS   bool            // DNS infrastructure (LDNS, auth, root/TLD)
}

// world is the constructed packet-mode internet for one shard's client
// range (the full server side is always present).
type world struct {
	cfg      Config
	topo     *workload.Topology
	tl       *faults.Timeline
	ids      *workload.EntityTable
	net      *simnet.Network
	rng      *rand.Rand
	clientLo int

	clients []*clientHost
	// rngs holds one stream per client (shard-local index), seeded from
	// the client's global index so draws are shard-layout-invariant.
	rngs    []*rand.Rand
	ldns    map[string]*dnssim.LDNS // by site
	servers []*httpsim.Server
	urls    []string // each website's index URL, by website index

	// info classifies the world's hosts for the path function, indexed
	// by simnet.Host.ID (every host is added through addHost).
	info []addrInfo

	// visit receives each performed transaction's record; txnFree pools
	// the state of finished transactions.
	visit   func(*Record)
	txnFree []*txn

	// tracer is the shard's exemplar sink (nil when tracing is off);
	// trSeq assigns each client's performed transactions their canonical
	// per-client ordinal, indexed shard-locally.
	tracer *obs.Tracer
	trSeq  []int64
}

type clientHost struct {
	node   *workload.ClientNode
	host   *simnet.Host
	stack  *tcpsim.Stack
	client *httpsim.Client
	dig    *dnssim.Dig
}

// buildWorld builds the world of one shard: the full server side plus
// the shard's client range, over its entity table and exemplar sink.
func buildWorld(cfg Config, sh *shard) *world {
	topo, ids := cfg.Topo, sh.ids
	clientLo, clientHi := sh.lo, sh.hi
	w := &world{
		cfg:      cfg,
		topo:     topo,
		tl:       cfg.Scenario.Timeline,
		ids:      ids,
		net:      simnet.NewNetwork(cfg.Seed ^ 0x7a65b1),
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x11ddcc)),
		clientLo: clientLo,
		ldns:     make(map[string]*dnssim.LDNS),
		tracer:   sh.trace,
	}
	if w.tracer != nil {
		w.trSeq = make([]int64, clientHi-clientLo)
	}

	// Each host's fault-entity view is recorded as the host is added.
	// DNS infrastructure (LDNS, authoritative, root/TLD) is marked isDNS:
	// prefix-scoped data-path faults (BGPInstability, PathOutage on a
	// prefix entity) exempt DNS traffic, mirroring the fast-mode
	// semantics that routing events hit the data path while resolution
	// uses distinct infrastructure (Section 4.1.3).
	dnsInfo := missingInfo
	dnsInfo.isDNS = true

	// --- DNS hierarchy: root + one TLD server per TLD + per-site auth.
	rootHost := w.addHost("root-dns", topo.RootDNS, dnsInfo)
	rootZone := dnssim.NewZone("")
	tldHost := w.addHost("tld-dns", topo.TLDDNS, dnsInfo)
	tldServer := dnssim.NewAuthServer(tldHost)
	tldZones := map[string]*dnssim.Zone{}
	for i := range topo.Websites {
		site := &topo.Websites[i]
		tld := site.Host[strings.LastIndexByte(site.Host, '.')+1:]
		if _, ok := tldZones[tld]; !ok {
			z := dnssim.NewZone(tld)
			tldZones[tld] = z
			tldServer.AddZone(z)
			rootZone.Delegate(tld, map[string]netip.Addr{"ns." + tld: topo.TLDDNS})
		}
		tldZones[tld].Delegate(site.Host, map[string]netip.Addr{"ns." + site.Host: site.AuthDNS})
	}
	dnssim.NewAuthServer(rootHost, rootZone)

	// --- Websites: auth DNS + replica servers (or the CDN pool).
	cdnNeeded := false
	w.urls = make([]string, len(topo.Websites))
	for i := range topo.Websites {
		site := &topo.Websites[i]
		w.urls[i] = "http://" + site.Host + "/"
		authInfo := dnsInfo
		authInfo.wwwIdx = int32(i)
		if len(site.Prefixes) > 0 {
			authInfo.pfxEnt = ids.Prefixes[i][0]
		}
		authHost := w.addHost("dns."+site.Host, site.AuthDNS, authInfo)
		zone := dnssim.NewZone(site.Host)
		if len(site.ReplicaAddrs) == 0 {
			cdnNeeded = true
			for _, a := range topo.CDNPool {
				zone.AddA(site.Host, a, 20)
			}
		}
		for _, a := range site.ReplicaAddrs {
			zone.AddA(site.Host, a, 60)
		}
		wwwID := ids.Website[i]
		auth := dnssim.NewAuthServer(authHost, zone)
		auth.Status = w.authStatus(wwwID)

		for k, a := range site.ReplicaAddrs {
			repInfo := missingInfo
			repInfo.wwwIdx = int32(i)
			repInfo.pfxEnt = ids.ReplicaPrefix[i][k]
			host := w.addHost(site.Host+"-r"+strconv.Itoa(k), a, repInfo)
			stack := tcpsim.NewStack(host)
			stack.Status = w.serverStatus(wwwID, ids.Replica[i][k])
			srv := httpsim.NewServer(stack)
			srv.Hosts = []string{site.Host}
			srv.Pages["/"] = httpsim.Page{Path: "/", Size: site.IndexSize}
			srv.Status = w.appStatus(wwwID)
			w.servers = append(w.servers, srv)
		}
	}
	if cdnNeeded {
		for k, a := range topo.CDNPool {
			host := w.addHost("cdn-"+strconv.Itoa(k), a, missingInfo)
			stack := tcpsim.NewStack(host)
			srv := httpsim.NewServer(stack)
			srv.Pages["/"] = httpsim.Page{Path: "/", Size: 10240}
			w.servers = append(w.servers, srv)
		}
	}

	// --- Client sites: LDNS (one per site), proxies, clients.
	proxies := map[string]netip.AddrPort{}
	w.rngs = make([]*rand.Rand, clientHi-clientLo)
	for gi := clientLo; gi < clientHi; gi++ {
		node := &topo.Clients[gi]
		w.rngs[gi-clientLo] = rand.New(rand.NewSource(cfg.Seed ^ 0x11ddcc ^ (int64(gi)+1)*0x100000001b3))
		// The site's LDNS and proxy are classified under the client
		// whose turn adds them: the site's first client, and its first
		// proxied client.
		siteInfo := missingInfo
		siteInfo.siteEnt = ids.Site[gi]
		siteInfo.client = int32(gi)
		if _, ok := w.ldns[node.Site]; !ok {
			ldnsInfo := siteInfo
			ldnsInfo.isDNS = true
			ldnsHost := w.addHost("ldns."+node.Site, node.LDNS, ldnsInfo)
			l := dnssim.NewLDNS(ldnsHost, []netip.Addr{topo.RootDNS})
			l.Status = w.ldnsStatus(ids.Site[gi])
			w.ldns[node.Site] = l
		}
		siteInfo.pfxEnt = ids.ClientPrefix[gi]
		if node.Proxied {
			if _, ok := proxies[node.Site]; !ok {
				prxHost := w.addHost("proxy."+node.Site, node.Proxy, siteInfo)
				prxStack := tcpsim.NewStack(prxHost)
				resolver := dnssim.NewStubResolver(prxHost, node.LDNS)
				httpsim.NewProxy(prxStack, resolver)
				proxies[node.Site] = netip.AddrPortFrom(node.Proxy, httpsim.ProxyPort)
			}
		}

		host := w.addHost(node.Name, node.Addr, siteInfo)
		stack := tcpsim.NewStack(host)
		resolver := dnssim.NewStubResolver(host, node.LDNS)
		cli := httpsim.NewClient(stack, resolver)
		if node.Proxied {
			cli.Proxy = proxies[node.Site]
			cli.NoCache = true
		}
		w.clients = append(w.clients, &clientHost{
			node:   node,
			host:   host,
			stack:  stack,
			client: cli,
			dig:    dnssim.NewDig(host, node.LDNS, []netip.Addr{topo.RootDNS}),
		})
	}

	w.net.RNGFor = func(ctx int32) *rand.Rand {
		if c := int(ctx); c >= clientLo && c < clientLo+len(w.rngs) {
			return w.rngs[c-clientLo]
		}
		return w.rng
	}
	w.net.SetPathFunc(w.pathState)
	return w
}

// addHost adds a host to the world's network and records its fault-entity
// view at the host's ID: hosts are numbered in the order they are added,
// and every host of the world is added here.
func (w *world) addHost(name string, addr netip.Addr, inf addrInfo) *simnet.Host {
	h := w.net.AddHost(name, addr)
	w.info = append(w.info, inf)
	return h
}

// ctxRNG returns the RNG stream of the client whose transaction is being
// simulated (identified by the scheduler's causal context), so that status
// draws depend only on that client's own history regardless of how clients
// are partitioned across shards.
func (w *world) ctxRNG() *rand.Rand {
	if c := int(w.net.Sched.Context()); c >= w.clientLo && c < w.clientLo+len(w.rngs) {
		return w.rngs[c-w.clientLo]
	}
	return w.rng
}

// Status functions: episode severity becomes a per-call failure draw, so
// fractional-severity episodes behave like flaky components.

func (w *world) authStatus(id faults.EntityID) dnssim.StatusFunc {
	return func(now simnet.Time) dnssim.Status {
		rng := w.ctxRNG()
		if ep := w.tl.ActiveID(id, faults.AuthDNSMisconfig, now); hit(rng, ep) {
			if ep.Mode == workload.MisconfigNXDomain {
				return dnssim.StatusNXDomain
			}
			return dnssim.StatusServFail
		}
		if hit(rng, w.tl.ActiveID(id, faults.AuthDNSOutage, now)) {
			return dnssim.StatusDown
		}
		return dnssim.StatusUp
	}
}

func (w *world) ldnsStatus(id faults.EntityID) dnssim.StatusFunc {
	return func(now simnet.Time) dnssim.Status {
		if ep := w.tl.ActiveID(id, faults.LDNSOutage, now); hit(w.ctxRNG(), ep) {
			return dnssim.StatusDown
		}
		return dnssim.StatusUp
	}
}

func (w *world) serverStatus(wwwID, repID faults.EntityID) tcpsim.StatusFunc {
	return func(now simnet.Time) tcpsim.HostStatus {
		rng := w.ctxRNG()
		if hit(rng, w.tl.ActiveID(wwwID, faults.ServerOutage, now)) {
			return tcpsim.HostDown
		}
		if hit(rng, w.tl.ActiveID(repID, faults.ServerOutage, now)) {
			return tcpsim.HostDown
		}
		return tcpsim.HostUp
	}
}

func (w *world) appStatus(id faults.EntityID) httpsim.AppStatusFunc {
	return func(now simnet.Time) httpsim.AppStatus {
		rng := w.ctxRNG()
		if ep := w.tl.ActiveID(id, faults.ServerOverload, now); hit(rng, ep) {
			switch ep.Mode {
			case workload.OverloadStall:
				return httpsim.AppStatus{Mode: httpsim.AppStall}
			case workload.OverloadAbort:
				return httpsim.AppStatus{Mode: httpsim.AppAbort}
			default:
				return httpsim.AppStatus{Mode: httpsim.AppHung}
			}
		}
		if hit(rng, w.tl.ActiveID(id, faults.ServerHTTPError, now)) {
			return httpsim.AppStatus{Mode: httpsim.AppError, Code: 503}
		}
		return httpsim.AppStatus{Mode: httpsim.AppOK}
	}
}

// missingInfo is the fault-entity view of a host no fault names (a CDN
// node) and of a destination no host holds.
var missingInfo = addrInfo{siteEnt: faults.NoEntity, pfxEnt: faults.NoEntity, client: -1, wwwIdx: -1}

// pathLatency is the one-way propagation delay. Packet mode uses a
// uniform 20 ms (a mid-continental path); failure behaviour, not absolute
// performance, is what this mode validates.
const pathLatency = 20 * time.Millisecond

// pathState resolves path conditions from the fault timeline: client-site
// connectivity episodes cut the site off, BGP instability degrades a
// prefix, and permanent pair blocks filter a (client site, website) pair.
// This is the hottest packet-mode function — it runs once per packet — so
// it works entirely off the addrInfo slice, read at both hosts' IDs: no
// map probe, no Entity strings built, and every timeline query is an
// array-indexed ActiveID.
func (w *world) pathState(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
	st := simnet.PathState{Latency: pathLatency, Loss: 0.002}

	si, di := &w.info[src.ID], &missingInfo
	if dst != nil {
		di = &w.info[dst.ID]
	}
	// Prefix-scoped data-path faults exempt DNS traffic (both modes treat
	// routing events as data-path phenomena); hoisted out of the
	// per-address loop since it depends only on the pair.
	dnsExempt := si.isDNS || di.isDNS

	apply := func(p float64) {
		if p >= 1 {
			st.Down = true
		} else if p > st.Loss {
			st.Loss = p
		}
	}

	for _, inf := range [2]*addrInfo{si, di} {
		if inf.siteEnt != faults.NoEntity {
			// Intra-site traffic (client to its own LDNS/proxy)
			// is not affected by *WAN* connectivity faults unless
			// the fault is the site's own last mile — the paper's
			// LDNS timeouts come precisely from the client-LDNS
			// path, so the site fault applies to everything.
			if ep := w.tl.ActiveID(inf.siteEnt, faults.ClientConnectivity, now); ep != nil {
				apply(ep.Severity)
			}
			if ep := w.tl.ActiveID(inf.siteEnt, faults.PathOutage, now); ep != nil {
				apply(ep.Severity)
			}
		}
		if dnsExempt {
			continue
		}
		if inf.pfxEnt != faults.NoEntity {
			if ep := w.tl.ActiveID(inf.pfxEnt, faults.BGPInstability, now); ep != nil {
				apply(pathImpact(ep))
			}
			if ep := w.tl.ActiveID(inf.pfxEnt, faults.PathOutage, now); ep != nil {
				apply(ep.Severity)
			}
		}
	}

	// Permanent pair blocks, in either direction.
	checkPair := func(client, wwwIdx int32) {
		if client < 0 || wwwIdx < 0 {
			return
		}
		id := w.ids.Pair(int(client), int(wwwIdx))
		if id == faults.NoEntity {
			return
		}
		if ep := w.tl.ActiveID(id, faults.PermanentBlock, now); ep != nil {
			if ep.Mode == workload.BlockPartial {
				// The mp3.com checksum case: the handshake
				// works but the transfer dies — heavy loss.
				apply(0.75)
			} else {
				apply(ep.Severity)
			}
		}
	}
	checkPair(si.client, di.wwwIdx)
	checkPair(di.client, si.wwwIdx)
	return st
}

// txn is one transaction in flight, pooled on the world: a client can
// have several in flight when a failing fetch outlives its next start.
// Its completion callbacks are method values made once per pooled
// instance, so a transaction allocates neither its Record nor a closure.
type txn struct {
	w        *world
	ch       *clientHost
	site     *workload.WebsiteNode
	rec      Record
	res      *httpsim.FetchResult
	digStart simnet.Time
	onFetch  func(*httpsim.FetchResult)
	onDig    func(*dnssim.DigReport)
}

// newTxn takes a transaction state from the pool, or makes one.
func (w *world) newTxn() *txn {
	if n := len(w.txnFree); n > 0 {
		t := w.txnFree[n-1]
		w.txnFree = w.txnFree[:n-1]
		return t
	}
	t := &txn{w: w}
	t.onFetch = t.fetched
	t.onDig = t.digged
	return t
}

// runTransaction performs one download following the Section 3.4 steps.
// It reports false when the client machine is off (no access performed).
func (w *world) runTransaction(tx *workload.Transaction) bool {
	ch := w.clients[tx.ClientIdx-w.clientLo]
	node := ch.node

	// Machine off: no access at all.
	if w.tl.ActiveID(w.ids.Client[tx.ClientIdx], faults.ClientMachineOff, tx.At) != nil {
		return false
	}

	// Step 1: flush the local DNS cache.
	if l, ok := w.ldns[node.Site]; ok && !node.Proxied {
		l.FlushCache()
	}

	t := w.newTxn()
	t.ch, t.site = ch, &w.topo.Websites[tx.SiteIdx]
	t.rec = Record{
		ClientIdx: int32(tx.ClientIdx),
		SiteIdx:   int32(tx.SiteIdx),
		At:        tx.At,
		Category:  node.Category,
		Proxied:   node.Proxied,
	}

	// Step 2: wget.
	ch.client.Fetch(w.urls[tx.SiteIdx], t.onFetch)
	return true
}

// fetched completes wget's step of the transaction.
func (t *txn) fetched(res *httpsim.FetchResult) {
	rec := &t.rec
	t.res = res
	rec.Stage = res.Stage
	rec.FailKind = res.FailKind
	rec.Conns = int16(len(res.Attempts))
	rec.StatusCode = int16(res.StatusCode)
	rec.Bytes = int32(res.Bytes)
	rec.Redirects = int8(res.Redirects)
	rec.ReplicaIP = res.ReplicaIP
	rec.Elapsed = res.Elapsed
	rec.DNSTime = res.DNS.RTT

	switch {
	case rec.Proxied:
		rec.DNS = DNSMasked
		t.finish(0)
	case res.Stage == httpsim.StageDNS:
		// Step 3: iterative dig to sub-classify the DNS failure,
		// exactly as the paper's post-processing does.
		t.digStart = t.w.net.Sched.Now()
		t.ch.dig.Trace(t.site.Host, t.onDig)
	default:
		rec.DNS = DNSOK
		t.finish(0)
	}
}

// digged completes the dig step of a transaction whose wget failed in
// DNS.
func (t *txn) digged(rep *dnssim.DigReport) {
	rec := &t.rec
	switch rep.Classify() {
	case dnssim.ClassLDNSTimeout:
		rec.DNS = DNSLDNSTimeout
	case dnssim.ClassErrorResponse:
		rec.DNS = DNSErrorResponse
	case dnssim.ClassNonLDNSTimeout:
		rec.DNS = DNSNonLDNSTimeout
	default:
		// dig succeeded where wget failed — transient; attribute by
		// wget's observation.
		if t.res.DNS.Kind == dnssim.ResultError {
			rec.DNS = DNSErrorResponse
		} else {
			rec.DNS = DNSLDNSTimeout
		}
	}
	t.finish(t.w.net.Sched.Now().Sub(t.digStart))
}

// finish traces the transaction, hands its record to the shard (which
// copies it) and returns t to the pool.
func (t *txn) finish(digDur time.Duration) {
	w := t.w
	if w.tracer != nil {
		w.traceTxn(t.ch, t.site, &t.rec, t.res, digDur)
	}
	w.visit(&t.rec)
	t.ch, t.site, t.res = nil, nil, nil
	w.txnFree = append(w.txnFree, t)
}
