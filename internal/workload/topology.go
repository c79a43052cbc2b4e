package workload

import (
	"fmt"
	"net/netip"
)

// Address plan for the simulated internet:
//
//   - each client site gets one /24 under 10.0.0.0/8: client hosts at
//     .10+, the site's LDNS at .53, the site proxy (CN only) at .80;
//   - each website gets one /24 under 172.16.0.0/12: replicas at .80+,
//     its authoritative DNS at .53; SpreadReplicas sites get a second /24
//     for replicas beyond the first;
//   - CDN-served sites draw per-lookup rotating addresses from a shared
//     pool under 198.18.0.0/20 (so no single address accounts for 10% of
//     connections — Section 4.5's zero-replica case);
//   - the DNS hierarchy (root, TLD) lives under 192.0.2.0/24.
//
// Prefixes (one per client site plus one or two per website) are the units
// of the BGP analysis, standing in for the paper's 137 Routeviews
// prefixes.

// ClientNode is a client plus its simulated network identity.
type ClientNode struct {
	Client
	Addr   netip.Addr
	LDNS   netip.Addr
	Proxy  netip.Addr // valid only for proxied CN clients
	Prefix netip.Prefix
}

// WebsiteNode is a website plus its simulated network identity.
type WebsiteNode struct {
	Website
	// Replicas lists the qualifying replica addresses (empty for
	// CDN-served sites).
	ReplicaAddrs []netip.Addr
	// AuthDNS is the site's authoritative name server.
	AuthDNS netip.Addr
	// Prefixes covers all replica addresses (1 normally, 2 when
	// SpreadReplicas).
	Prefixes []netip.Prefix
}

// Topology is the fully addressed experiment population.
type Topology struct {
	Clients  []ClientNode
	Websites []WebsiteNode

	// CDNPool is the shared address pool for CDN-served sites.
	CDNPool []netip.Addr

	// RootDNS and TLDDNS anchor the simulated DNS hierarchy.
	RootDNS netip.Addr
	TLDDNS  netip.Addr

	siteIndex   map[string]int // website host -> index
	clientIndex map[string]int // client name -> index
}

// Address-plan capacity limits. Client site numbers fill the second and
// third octets of 10.0.0.0/8; client hosts occupy .10 upward within the
// site /24. Website numbers fill 172.16.0.0/12 upward from 172.16.0.0
// (240 x 256 /24s before the first octet overflows); replicas occupy
// .80 upward, and SpreadReplicas sites claim a second /24 at hi+8 —
// which only exists for the first 232 x 256 website numbers, and is the
// first /24 of website number j+SpreadOffset, so a roster holding that
// website cannot spread website j. Scenario validation enforces these
// before compiling a roster.
const (
	MaxClientSites    = 65536
	MaxClientsPerSite = 246 // hosts .10 through .255
	MaxWebsites       = 240 * 256
	SpreadOffset      = 8 * 256                    // website j's second /24 is website j+SpreadOffset's first
	MaxSpreadWebsites = MaxWebsites - SpreadOffset // second /24 at hi+8 must fit under 255
	MaxReplicas       = 176                        // replicas .80 through .255
)

// NewRosterTopology assigns addresses to an arbitrary roster, in roster
// order. It is the only topology constructor: every population — the
// paper's Table 1 + Table 2 roster and generated fleets alike — is
// compiled to a (clients, websites) roster by internal/scenario and
// addressed here.
func NewRosterTopology(cs []Client, ws []Website) *Topology {
	return buildTopology(cs, ws)
}

func buildTopology(cs []Client, ws []Website) *Topology {
	t := &Topology{
		RootDNS:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		TLDDNS:      netip.AddrFrom4([4]byte{192, 0, 2, 2}),
		siteIndex:   make(map[string]int),
		clientIndex: make(map[string]int),
	}

	// Client sites, in roster order; co-located clients share a /24.
	siteNet := make(map[string]int)
	nextSite := 0
	hostInSite := make(map[string]int)
	for _, c := range cs {
		sn, ok := siteNet[c.Site]
		if !ok {
			sn = nextSite
			nextSite++
			siteNet[c.Site] = sn
		}
		base := [4]byte{10, byte(sn / 256), byte(sn % 256), 0}
		hostInSite[c.Site]++
		addrB := base
		addrB[3] = byte(9 + hostInSite[c.Site])
		ldnsB := base
		ldnsB[3] = 53
		proxyB := base
		proxyB[3] = 80
		node := ClientNode{
			Client: c,
			Addr:   netip.AddrFrom4(addrB),
			LDNS:   netip.AddrFrom4(ldnsB),
			Prefix: netip.PrefixFrom(netip.AddrFrom4(base), 24),
		}
		if c.Proxied {
			node.Proxy = netip.AddrFrom4(proxyB)
		}
		t.clientIndex[c.Name] = len(t.Clients)
		t.Clients = append(t.Clients, node)
	}

	// CDN pool: 40 rotating addresses.
	for i := 0; i < 40; i++ {
		t.CDNPool = append(t.CDNPool, netip.AddrFrom4([4]byte{198, 18, byte(i / 250), byte(2 + i%250)}))
	}

	// Websites.
	for j, w := range ws {
		hi, lo := byte(16+j/256), byte(j%256)
		base := [4]byte{172, hi, lo, 0}
		node := WebsiteNode{
			Website: w,
			AuthDNS: netip.AddrFrom4([4]byte{172, hi, lo, 53}),
		}
		node.Prefixes = append(node.Prefixes, netip.PrefixFrom(netip.AddrFrom4(base), 24))
		for k := 0; k < w.Replicas; k++ {
			b := base
			if w.SpreadReplicas && k > 0 {
				// Later replicas on a second /24 (distinct
				// prefix — the rarer "spread" case of §4.5).
				b = [4]byte{172, hi + SpreadOffset/256, lo, 0}
			}
			b[3] = byte(80 + k)
			node.ReplicaAddrs = append(node.ReplicaAddrs, netip.AddrFrom4(b))
		}
		if w.SpreadReplicas && w.Replicas > 1 {
			node.Prefixes = append(node.Prefixes, netip.PrefixFrom(netip.AddrFrom4([4]byte{172, hi + SpreadOffset/256, lo, 0}), 24))
		}
		t.siteIndex[w.Host] = len(t.Websites)
		t.Websites = append(t.Websites, node)
	}
	return t
}

// Website returns the node for a host name, or nil.
func (t *Topology) Website(host string) *WebsiteNode {
	if i, ok := t.siteIndex[host]; ok {
		return &t.Websites[i]
	}
	return nil
}

// WebsiteIndex returns the index of a host name, or -1 when absent.
func (t *Topology) WebsiteIndex(host string) int {
	if i, ok := t.siteIndex[host]; ok {
		return i
	}
	return -1
}

// ClientByName returns the node for a client name, or nil.
func (t *Topology) ClientByName(name string) *ClientNode {
	if i, ok := t.clientIndex[name]; ok {
		return &t.Clients[i]
	}
	return nil
}

// AllPrefixes returns every monitored prefix (client sites first, then
// website prefixes), the BGP analysis population.
func (t *Topology) AllPrefixes() []netip.Prefix {
	seen := make(map[netip.Prefix]bool)
	var out []netip.Prefix
	add := func(p netip.Prefix) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i := range t.Clients {
		add(t.Clients[i].Prefix)
	}
	for i := range t.Websites {
		for _, p := range t.Websites[i].Prefixes {
			add(p)
		}
	}
	return out
}

// EachCoLocatedPair calls fn(i, j) for every unordered pair of client
// indexes i < j whose clients share a site — the 35 pairs of Section
// 4.4.6 (33 PL + 2 BB) when built from the full roster. CN clients are
// excluded as in the paper (their proxies confound client-side
// attribution). Sites are visited in the roster order of their first
// client, and each site's pairs in roster order, so the visit order is
// deterministic run to run.
func (t *Topology) EachCoLocatedPair(fn func(i, j int)) {
	siteOf := make(map[string]int)
	var bySite [][]int
	for i := range t.Clients {
		c := &t.Clients[i]
		if c.Category == CN {
			continue
		}
		s, ok := siteOf[c.Site]
		if !ok {
			s = len(bySite)
			siteOf[c.Site] = s
			bySite = append(bySite, nil)
		}
		bySite[s] = append(bySite[s], i)
	}
	for _, members := range bySite {
		for x, i := range members {
			for _, j := range members[x+1:] {
				fn(i, j)
			}
		}
	}
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("topology: %d clients, %d websites, %d prefixes",
		len(t.Clients), len(t.Websites), len(t.AllPrefixes()))
}
