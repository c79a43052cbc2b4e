// BGP outage study (the Section 4.6 / Figure 5 scenario in miniature):
// inject a severe BGP withdrawal event on one client's prefix, run the
// measurement harness over two simulated days, and correlate the client's
// end-to-end TCP failures with the Routeviews-style BGP observations —
// including the paper's cleaning of a collector reset.
//
// Run with: go run ./examples/bgp-outage
package main

import (
	"fmt"
	"time"

	"webfail/internal/core"
	"webfail/internal/faults"
	"webfail/internal/measure"
	"webfail/internal/scenario"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

func main() {
	topo := scenario.PaperScaledTopology(20, 20)
	end := simnet.FromHours(48)

	// A scenario with only the faults we inject by hand.
	params := scenario.PaperParams(7, 0, end)
	sc := workload.BuildScenario(topo, params)
	victim := &topo.Clients[0]

	tl := faults.NewTimeline()
	// Hour 20: a severe routing event takes the victim's prefix away
	// from nearly every vantage point for 40 minutes.
	tl.Add(faults.Episode{
		Entity:   workload.PrefixEntity(victim.Prefix),
		Kind:     faults.BGPInstability,
		Start:    simnet.FromHours(20).Add(5 * time.Minute),
		Duration: 40 * time.Minute,
		Severity: 1.0, // all 73 neighbors withdraw
	})
	// Hour 33: a small local event — 2 of 73 neighbors — that barely
	// dents reachability (contrast for the detectors).
	tl.Add(faults.Episode{
		Entity:   workload.PrefixEntity(victim.Prefix),
		Kind:     faults.BGPInstability,
		Start:    simnet.FromHours(33),
		Duration: 30 * time.Minute,
		Severity: 2.0 / 73.0,
	})
	tl.Freeze()
	sc.Timeline = tl

	cfg := measure.Config{Topo: topo, Scenario: sc, Seed: 1, Start: 0, End: end}
	a := core.NewAnalysis(topo, 0, end)
	if err := measure.Run(cfg, func(r *measure.Record) { a.Add(r) }); err != nil {
		panic(err)
	}

	table, resets := core.GenerateBGP(topo, sc, 99)
	fmt.Printf("client under study: %s (prefix %v)\n", victim.Name, victim.Prefix)
	fmt.Printf("collector-reset hours cleaned from the BGP feed: %d\n\n", len(resets))

	fmt.Printf("%-6s %9s %9s %8s %6s %6s\n", "hour", "attempts", "failures", "streak", "wdr", "nbrs")
	for _, p := range a.ClientTimeline(victim.Name, table) {
		if p.Withdrawals == 0 && p.ConnFails == 0 {
			continue
		}
		fmt.Printf("%-6d %9d %9d %8d %6d %6d\n",
			p.Hour, p.Attempts, p.ConnFails, p.Streak, p.Withdrawals, p.WithdrawNeighbors)
	}

	corr := a.CorrelateBGP(table)
	fmt.Printf("\nsevere instability (>=70 neighbors): %d hour(s)\n", len(corr.Severe70))
	for _, h := range corr.Severe70 {
		fmt.Printf("  prefix %v hour %d: TCP failure rate %.1f%% over %d attempts (%d withdrawals)\n",
			h.Prefix, h.Hour, 100*h.FailRate, h.Attempts, h.Withdrawals)
	}
	fmt.Println("\nthe 2-neighbor event at hour 33 must NOT be flagged severe —")
	fmt.Printf("flagged hours at 33: %d (want 0)\n", countAtHour(corr.Severe70, 33))
}

func countAtHour(hs []core.InstabilityHour, hour int64) int {
	n := 0
	for _, h := range hs {
		if h.Hour == hour {
			n++
		}
	}
	return n
}
