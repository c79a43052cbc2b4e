// Package workload defines the experiment's population machinery: client
// and website types, the simulated network topology (addresses, prefixes,
// replicas, proxies) built from any roster, the randomized download
// schedule of Section 3.4, and the data-driven fault scenario builder
// that turns a ScenarioParams description into a fault timeline with
// known ground truth.
//
// The rosters themselves — the paper's Table 1 clients and Table 2
// websites as well as generated fleets — are compiled from declarative
// scenario specs by internal/scenario; this package holds no roster
// data of its own.
package workload

import (
	"fmt"
	"time"
)

// Category is the client category of Table 1.
type Category uint8

// Client categories.
const (
	PL Category = iota // PlanetLab
	DU                 // commercial dialup (MSN PoPs)
	CN                 // corporate network (proxied)
	BB                 // residential broadband
)

func (c Category) String() string {
	switch c {
	case PL:
		return "PL"
	case DU:
		return "DU"
	case CN:
		return "CN"
	case BB:
		return "BB"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Client is one measurement vantage point.
type Client struct {
	// Name is the unique client host name.
	Name string
	// Category per Table 1.
	Category Category
	// Site groups co-located clients: clients sharing a Site share an
	// access network, an LDNS, and (for CN) WAN connectivity. The
	// co-location similarity analysis (Section 4.4.6 #2) pairs clients
	// within a Site.
	Site string
	// Region is a coarse location tag used for path latency.
	Region string
	// Proxied marks CN clients whose requests traverse a caching
	// proxy; SEAEXT shares SEA's WAN but bypasses the proxy.
	Proxied bool
	// RoundsPerHour is how many full rounds over the website roster the
	// client runs per hour (PL/BB/CN ≈ 4 per Section 3.1; DU virtual
	// clients are visited only when their PoP is dialed, ≈ 0.25).
	RoundsPerHour float64
	// StartOffset delays the client's first round past the experiment
	// start — the startup pattern (linear/exponential/wave ramp-up) of
	// generated fleets. Zero means the client is active from the start,
	// which is how every paper-roster client behaves.
	StartOffset time.Duration
}

// SiteGroup is a website's roster group from Table 2.
type SiteGroup string

// Website groups.
const (
	USEdu       SiteGroup = "US-EDU"
	USPopular   SiteGroup = "US-POPULAR"
	USMisc      SiteGroup = "US-MISC"
	IntlEdu     SiteGroup = "INTL-EDU"
	IntlPopular SiteGroup = "INTL-POPULAR"
	IntlMisc    SiteGroup = "INTL-MISC"
)

// Website is one download target.
type Website struct {
	// Host is the hostname fetched (the "www" form used by wget).
	Host string
	// Group per Table 2.
	Group SiteGroup
	// Region locates the origin servers.
	Region string
	// Replicas is the number of qualifying replica IPs: 0 means
	// CDN-served (many rotating IPs, none qualifying per the 10% rule
	// of Section 4.5), 1 a single server, >1 a replica set.
	Replicas int
	// SpreadReplicas places replicas on distinct /24 prefixes; the
	// default (false) puts them on one subnet, which the paper found
	// to be the dominant case (Section 4.5).
	SpreadReplicas bool
	// IndexSize is the top-level index page size in bytes.
	IndexSize int
}
