// Proxy failover study (Section 4.7 / Table 9 in miniature): a website
// with three replicas, one of which is down at any given moment. Direct
// wget clients fail over across the A records and almost never notice;
// clients behind an ISA-style proxy — which resolves names itself and
// never fails over — see a high residual failure rate. The paper found
// exactly this signature for www.iitb.ac.in.
//
// Run with: go run ./examples/proxy-failover
package main

import (
	"fmt"
	"net/netip"
	"time"

	"webfail/internal/dnssim"
	"webfail/internal/httpsim"
	"webfail/internal/simnet"
	"webfail/internal/tcpsim"
)

func main() {
	net := simnet.NewNetwork(7)

	rootAddr := netip.MustParseAddr("192.0.2.1")
	authAddr := netip.MustParseAddr("172.16.0.53")
	replicas := []netip.Addr{
		netip.MustParseAddr("172.16.0.80"),
		netip.MustParseAddr("172.16.0.81"),
		netip.MustParseAddr("172.16.0.82"),
	}
	ldnsAddr := netip.MustParseAddr("10.0.0.53")
	directAddr := netip.MustParseAddr("10.0.0.10")
	proxiedAddr := netip.MustParseAddr("10.0.0.11")
	proxyAddr := netip.MustParseAddr("10.0.0.80")

	rootZone := dnssim.NewZone("")
	rootZone.Delegate("iitb.ac.in", map[string]netip.Addr{"ns.iitb.ac.in": authAddr})
	dnssim.NewAuthServer(net.AddHost("root-dns", rootAddr), rootZone)

	zone := dnssim.NewZone("iitb.ac.in")
	for _, a := range replicas {
		zone.AddA("www.iitb.ac.in", a, 30)
	}
	dnssim.NewAuthServer(net.AddHost("auth-dns", authAddr), zone)

	// One replica is down at any time, rotating every 20 minutes — the
	// "often one or two of these IP addresses is unreachable" pattern.
	downIdx := func(now simnet.Time) int {
		return int(int64(now)/int64(20*time.Minute)) % len(replicas)
	}
	for i, addr := range replicas {
		i := i
		stack := tcpsim.NewStack(net.AddHost(fmt.Sprintf("replica%d", i), addr))
		stack.Status = func(now simnet.Time) tcpsim.HostStatus {
			if downIdx(now) == i {
				return tcpsim.HostDown
			}
			return tcpsim.HostUp
		}
		srv := httpsim.NewServer(stack)
		srv.Hosts = []string{"www.iitb.ac.in"}
	}

	ldns := dnssim.NewLDNS(net.AddHost("ldns", ldnsAddr), []netip.Addr{rootAddr})

	// Direct client.
	directHost := net.AddHost("direct", directAddr)
	direct := httpsim.NewClient(tcpsim.NewStack(directHost), dnssim.NewStubResolver(directHost, ldnsAddr))

	// Proxy + proxied client. The proxy keeps a resolved name for 10
	// minutes, half the outage rotation, so the replica it pins changes
	// as the outages rotate.
	proxyHost := net.AddHost("proxy", proxyAddr)
	prx := httpsim.NewProxy(tcpsim.NewStack(proxyHost), dnssim.NewStubResolver(proxyHost, ldnsAddr))
	proxiedHost := net.AddHost("proxied", proxiedAddr)
	proxied := &httpsim.Client{
		Stack:    tcpsim.NewStack(proxiedHost),
		Resolver: dnssim.NewStubResolver(proxiedHost, ldnsAddr),
		Proxy:    netip.AddrPortFrom(proxyAddr, httpsim.ProxyPort),
		NoCache:  true,
	}

	// Both clients fetch every 2 minutes for 6 simulated hours.
	type tally struct{ total, failed int }
	var directT, proxiedT tally
	var run func(at simnet.Time)
	run = func(at simnet.Time) {
		if at >= simnet.FromHours(6) {
			return
		}
		net.Sched.At(at, func() {
			ldns.FlushCache()
			direct.Fetch("http://www.iitb.ac.in/", func(res *httpsim.FetchResult) {
				directT.total++
				if !res.OK {
					directT.failed++
				}
			})
			proxied.Fetch("http://www.iitb.ac.in/", func(res *httpsim.FetchResult) {
				proxiedT.total++
				if !res.OK {
					proxiedT.failed++
				}
			})
			run(at.Add(2 * time.Minute))
		})
	}
	run(0)
	net.Sched.Run()

	fmt.Println("six hours of accesses to a 3-replica site with one replica always down:")
	fmt.Printf("  direct wget (fails over):     %3d/%3d failed (%.1f%%)\n",
		directT.failed, directT.total, 100*float64(directT.failed)/float64(directT.total))
	fmt.Printf("  via no-failover proxy:        %3d/%3d failed (%.1f%%)\n",
		proxiedT.failed, proxiedT.total, 100*float64(proxiedT.failed)/float64(proxiedT.total))
	fmt.Printf("  proxy stats: relayed=%d gateway-errors=%d\n", prx.Relayed, prx.Errors)
	fmt.Println("\npaper (Table 9): proxied CN clients ~5-8% residual failures to")
	fmt.Println("www.iitb.ac.in vs ~0.3% for direct clients — same mechanism.")
}
