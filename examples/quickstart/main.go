// Quickstart: build a miniature simulated internet in packet mode, fetch
// a page exactly the way the study's measurement clients did (flush DNS,
// wget, classify), capture the packets tcpdump-style, and post-process
// the trace into the paper's failure taxonomy.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"net/netip"
	"time"

	"webfail/internal/dnssim"
	"webfail/internal/httpsim"
	"webfail/internal/netwire"
	"webfail/internal/simnet"
	"webfail/internal/tcpsim"
	"webfail/internal/trace"
)

func main() {
	// --- Build the world: root DNS, a website with authoritative DNS
	// and two replicas, a client site with its LDNS.
	net := simnet.NewNetwork(42)

	rootAddr := netip.MustParseAddr("192.0.2.1")
	authAddr := netip.MustParseAddr("172.16.0.53")
	rep1 := netip.MustParseAddr("172.16.0.80")
	rep2 := netip.MustParseAddr("172.16.0.81")
	ldnsAddr := netip.MustParseAddr("10.0.0.53")
	clientAddr := netip.MustParseAddr("10.0.0.10")

	rootZone := dnssim.NewZone("")
	rootZone.Delegate("example.org", map[string]netip.Addr{"ns.example.org": authAddr})
	dnssim.NewAuthServer(net.AddHost("root-dns", rootAddr), rootZone)

	siteZone := dnssim.NewZone("example.org")
	siteZone.AddA("www.example.org", rep1, 60)
	siteZone.AddA("www.example.org", rep2, 60)
	dnssim.NewAuthServer(net.AddHost("auth-dns", authAddr), siteZone)

	for i, addr := range []netip.Addr{rep1, rep2} {
		stack := tcpsim.NewStack(net.AddHost(fmt.Sprintf("replica%d", i+1), addr))
		srv := httpsim.NewServer(stack)
		srv.Hosts = []string{"www.example.org"}
		srv.Pages["/"] = httpsim.Page{Path: "/", Size: 8 * 1024}
	}

	ldns := dnssim.NewLDNS(net.AddHost("ldns", ldnsAddr), []netip.Addr{rootAddr})

	clientHost := net.AddHost("client", clientAddr)
	stack := tcpsim.NewStack(clientHost)
	resolver := dnssim.NewStubResolver(clientHost, ldnsAddr)
	client := httpsim.NewClient(stack, resolver)

	// --- Attach a packet capture (the study's tcpdump step).
	cap := &trace.Capture{}
	cap.Attach(clientHost)

	// --- Fetch once healthy, then take the replica the DNS rotation
	// will hand out next off the network and fetch again: wget fails
	// over to the surviving replica (the Section 4.7 contrast with the
	// no-failover proxy).
	outageAt := simnet.Time(30 * time.Second)

	fetch := func(label string, done func(*httpsim.FetchResult)) {
		ldns.FlushCache() // the study flushes DNS before every download (Section 3.4)
		client.Fetch("http://www.example.org/", func(res *httpsim.FetchResult) {
			fmt.Printf("%-18s stage=%-8v status=%d bytes=%d conns=%d replica=%v elapsed=%v\n",
				label, res.Stage, res.StatusCode, res.Bytes, len(res.Attempts), res.ReplicaIP,
				res.Elapsed.Round(time.Millisecond))
			if done != nil {
				done(res)
			}
		})
	}

	net.Sched.At(0, func() {
		fetch("healthy fetch:", func(res *httpsim.FetchResult) {
			// The round-robin rotation will offer the *other*
			// replica first next time; kill that one.
			down := rep1
			if res.ReplicaIP == rep2 {
				down = rep1
			} else {
				down = rep2
			}
			net.Sched.At(outageAt, func() {
				downHost := net.Host(down)
				net.SetPathFunc(func(src, dst *simnet.Host, now simnet.Time) simnet.PathState {
					if dst == downHost || src == downHost {
						return simnet.PathState{Latency: 40 * time.Millisecond, Down: true}
					}
					return simnet.PathState{Latency: 40 * time.Millisecond}
				})
				fetch("one replica down:", nil)
			})
		})
	})
	net.Sched.Run()

	// --- Post-process the capture the way Section 3.5 does.
	fmt.Println("\ntrace post-processing (per TCP connection):")
	flows := trace.AnalyzeTCP(cap.Packets())
	for _, fs := range trace.SortedFlows(flows) {
		fmt.Printf("  %-45v class=%-15v syns=%d bytes(c->s/s->c)=%d/%d retrans=%d loss~%.2f%%\n",
			fs.Flow, fs.Classify(), fs.SYNs, fs.ClientPayloadBytes, fs.ServerPayloadBytes,
			fs.ClientRetransmits+fs.ServerRetransmits, 100*fs.LossRate())
	}

	// Show a few decoded packets: each carries its IPv4 header, its TCP
	// or UDP header and its payload.
	fmt.Println("\nfirst packets on the wire:")
	for i, pkt := range cap.Packets() {
		if i >= 6 {
			break
		}
		switch ip := pkt.IPv4; {
		case pkt.TCP != nil:
			tcp := pkt.TCP
			fmt.Printf("  %8v %-3v %v:%d -> %v:%d [%s] len=%d\n", pkt.Time, pkt.Dir,
				ip.Src, tcp.SrcPort, ip.Dst, tcp.DstPort, netwire.FlagString(tcp.Flags), len(pkt.Payload))
		case pkt.UDP != nil:
			udp := pkt.UDP
			fmt.Printf("  %8v %-3v %v:%d -> %v:%d DNS len=%d\n", pkt.Time, pkt.Dir,
				ip.Src, udp.SrcPort, ip.Dst, udp.DstPort, len(pkt.Payload))
		}
	}
}
