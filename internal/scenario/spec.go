// Package scenario defines the declarative scenario spec — a
// zero-dependency JSON description of a measurement world: the client
// population (explicit co-location groups, named members, or generated
// fleets from weighted templates), the website roster (explicit entries
// or generated fleets with replica/CDN policies), and the fault
// calibration (per-category fault-rate profiles keyed to faults.Process
// knobs, special servers, chronic entities, pinned BGP events, permanent
// pair blocks).
//
// A spec compiles deterministically: the same spec always yields the
// same roster (compilation draws no random numbers — weighted choices
// use largest-remainder round-robin), and spec + seed always yields the
// same fault timeline. The paper's Table 1/2 roster is not special: it
// is the compiled output of the checked-in scenarios/paper-default.json.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Duration marshals as a time.ParseDuration string ("15m", "2h30m") so
// specs stay human-readable.
type Duration time.Duration

// MarshalJSON encodes the duration in time.Duration.String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a time.ParseDuration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"15m\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// D converts to time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Spec is the root of a scenario document.
type Spec struct {
	// Name identifies the scenario (recorded in dataset headers and the
	// obs registry).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Clients lists population blocks, compiled in order.
	Clients []ClientBlock `json:"clients"`
	// Websites lists roster blocks, compiled in order.
	Websites []WebsiteBlock `json:"websites"`
	// Faults calibrates the fault schedule.
	Faults FaultSpec `json:"faults"`
}

// ClientBlock contributes clients to the roster. Exactly one of Group,
// Members, or Fleet must be set.
type ClientBlock struct {
	// Group places Count clients at one shared site (a co-location
	// group).
	Group *ClientGroup `json:"group,omitempty"`
	// Members places individually named clients.
	Members []ClientMember `json:"members,omitempty"`
	// Fleet generates clients from weighted templates.
	Fleet *ClientFleet `json:"fleet,omitempty"`
}

// ClientGroup is an explicit co-location group: Count clients sharing
// one site, named by NameFormat.
type ClientGroup struct {
	Site     string `json:"site"`
	Region   string `json:"region"`
	Category string `json:"category"` // PL | DU | CN | BB
	Count    int    `json:"count"`
	// NameFormat must contain one %d verb; members are numbered from 1
	// (e.g. "planetlab%d.kaist.ac.kr").
	NameFormat    string  `json:"nameFormat"`
	RoundsPerHour float64 `json:"roundsPerHour"`
	Proxied       bool    `json:"proxied,omitempty"`
}

// ClientMember is one explicitly named client.
type ClientMember struct {
	Name          string  `json:"name"`
	Site          string  `json:"site"`
	Region        string  `json:"region"`
	Category      string  `json:"category"`
	RoundsPerHour float64 `json:"roundsPerHour"`
	Proxied       bool    `json:"proxied,omitempty"`
}

// ClientFleet generates Count clients from weighted templates, grouped
// into co-location sites by a group-size distribution, spread over
// weighted regions, optionally ramped up by a startup pattern.
type ClientFleet struct {
	Count int `json:"count"`
	// NameFormat must contain one %d verb, filled with the fleet-local
	// client index (0-based). SiteFormat likewise with the fleet-local
	// site index.
	NameFormat string `json:"nameFormat"`
	SiteFormat string `json:"siteFormat"`
	// Templates are cycled by weight (largest-remainder round-robin,
	// one draw per client). Weights must sum to 1.
	Templates []ClientTemplate `json:"templates"`
	// GroupSizes is the co-location group size distribution, one draw
	// per site. Empty means singleton sites.
	GroupSizes []WeightedInt `json:"groupSizes,omitempty"`
	// Regions assigns a region per site (one draw per site). Weights
	// must sum to 1.
	Regions []WeightedValue `json:"regions"`
	// Startup ramps the fleet up over a window; absent means every
	// client is active from the experiment start.
	Startup *StartupSpec `json:"startup,omitempty"`
}

// ClientTemplate is one weighted client shape within a fleet.
type ClientTemplate struct {
	Weight        float64 `json:"weight"`
	Category      string  `json:"category"`
	RoundsPerHour float64 `json:"roundsPerHour"`
	Proxied       bool    `json:"proxied,omitempty"`
}

// WeightedInt is a weighted integer outcome (e.g. a group size).
type WeightedInt struct {
	Value  int     `json:"value"`
	Weight float64 `json:"weight"`
}

// WeightedValue is a weighted string outcome (e.g. a region).
type WeightedValue struct {
	Value  string  `json:"value"`
	Weight float64 `json:"weight"`
}

// Startup patterns: how a generated fleet's clients come online across
// the startup window.
const (
	StartupInstant     = "instant"     // all at t=0
	StartupLinear      = "linear"      // uniform ramp across the window
	StartupExponential = "exponential" // exponential growth: most arrive late
	StartupWave        = "wave"        // discrete cohorts (Waves batches)
)

// StartupSpec describes a fleet's ramp-up.
type StartupSpec struct {
	Pattern string   `json:"pattern"`
	Window  Duration `json:"window"`
	// Waves is the cohort count for the wave pattern (default 4).
	Waves int `json:"waves,omitempty"`
}

// WebsiteBlock contributes websites to the roster. Exactly one of List
// or Fleet must be set.
type WebsiteBlock struct {
	List  []WebsiteEntry `json:"list,omitempty"`
	Fleet *WebsiteFleet  `json:"fleet,omitempty"`
}

// WebsiteEntry is one explicit website.
type WebsiteEntry struct {
	Host   string `json:"host"`
	Group  string `json:"group"`
	Region string `json:"region"`
	// Replicas: 0 = CDN-served (rotating pool addresses), 1 = single
	// server, >1 = replica set.
	Replicas       int  `json:"replicas"`
	SpreadReplicas bool `json:"spreadReplicas,omitempty"`
	IndexSize      int  `json:"indexSize,omitempty"` // default 10240
}

// WebsiteFleet generates Count websites from weighted templates.
type WebsiteFleet struct {
	Count int `json:"count"`
	// HostFormat must contain one %d verb (fleet-local index, 0-based).
	HostFormat string `json:"hostFormat"`
	// Templates are cycled by weight, one draw per website. Weights
	// must sum to 1.
	Templates []WebsiteTemplate `json:"templates"`
	// Regions assigns a region per website (one draw each). Weights
	// must sum to 1.
	Regions []WeightedValue `json:"regions"`
}

// WebsiteTemplate is one weighted website shape within a fleet.
type WebsiteTemplate struct {
	Weight         float64 `json:"weight"`
	Group          string  `json:"group"`
	Replicas       int     `json:"replicas"`
	SpreadReplicas bool    `json:"spreadReplicas,omitempty"`
	IndexSize      int     `json:"indexSize,omitempty"`
}

// ProcessSpec is the JSON form of a faults.Process.
type ProcessSpec struct {
	Kind         string   `json:"kind"`
	RatePerMonth float64  `json:"ratePerMonth"`
	MeanDuration Duration `json:"meanDuration"`
	MinDuration  Duration `json:"minDuration"`
	MaxDuration  Duration `json:"maxDuration"`
	SeverityLow  float64  `json:"severityLow"`
	SeverityHigh float64  `json:"severityHigh"`
}

// FaultSpec calibrates the fault schedule: the stochastic processes of
// workload.ScenarioParams plus the hand-placed signature faults.
type FaultSpec struct {
	// Per-category client-side processes, keyed "PL"/"DU"/"CN"/"BB".
	// Every category present in the roster must be covered.
	MachineOff map[string]ProcessSpec `json:"machineOff"`
	SiteConn   map[string]ProcessSpec `json:"siteConn"`
	ClientConn map[string]ProcessSpec `json:"clientConn"`
	LDNSOutage map[string]ProcessSpec `json:"ldnsOutage"`
	LDNSFlaky  map[string]ProcessSpec `json:"ldnsFlaky"`
	WANOutage  map[string]ProcessSpec `json:"wanOutage"`

	SiteFactorMean float64 `json:"siteFactorMean"`

	SiteOutage    ProcessSpec `json:"siteOutage"`
	ReplicaOutage ProcessSpec `json:"replicaOutage"`
	SiteOverload  ProcessSpec `json:"siteOverload"`
	AuthDNSOutage ProcessSpec `json:"authDNSOutage"`
	HTTPError     ProcessSpec `json:"httpError"`

	BGPRate           float64 `json:"bgpRate"`
	BGPGlobalFraction float64 `json:"bgpGlobalFraction"`

	TransientConnFail float64 `json:"transientConnFail"`
	TransientDNSFail  float64 `json:"transientDNSFail"`
	TransientHTTPErr  float64 `json:"transientHTTPErr"`

	Specials       []SpecialSpec   `json:"specials,omitempty"`
	ChronicSites   []ChronicSpec   `json:"chronicSites,omitempty"`
	ChronicClients []ChronicSpec   `json:"chronicClients,omitempty"`
	PinnedBGP      []PinnedBGPSpec `json:"pinnedBGP,omitempty"`
	Permanent      []PermanentSpec `json:"permanent,omitempty"`
}

// SpecialSpec marks one website as failure-prone (chronic episodes,
// extra outages, flaky replicas). Host may name a generated website.
type SpecialSpec struct {
	Host            string     `json:"host"`
	ChronicCover    float64    `json:"chronicCover,omitempty"`
	ChronicSeverity [2]float64 `json:"chronicSeverity,omitempty"`
	// ChronicKind is a faults.Kind name ("server-outage",
	// "server-overload", "authdns-misconfig", ...).
	ChronicKind string `json:"chronicKind,omitempty"`
	// ChronicMode refines the kind: "hung"/"stall"/"abort" for
	// server-overload, "servfail"/"nxdomain" for authdns-misconfig.
	ChronicMode          string  `json:"chronicMode,omitempty"`
	ExtraOutageRate      float64 `json:"extraOutageRate,omitempty"`
	ReplicaFlakyFraction float64 `json:"replicaFlakyFraction,omitempty"`
}

// ChronicSpec marks one client site or client as chronically flaky.
type ChronicSpec struct {
	Name     string     `json:"name"`
	Cover    float64    `json:"cover"`
	Severity [2]float64 `json:"severity"`
}

// PinnedBGPSpec places a BGP episode at a fixed Unix instant on the
// prefix of the first client whose name contains ClientSubstr.
type PinnedBGPSpec struct {
	ClientSubstr string   `json:"clientSubstr"`
	AtUnix       int64    `json:"atUnix"`
	Duration     Duration `json:"duration"`
	Severity     float64  `json:"severity"`
	// Mode "" or "high-impact" (few withdrawing neighbors, most paths
	// lost).
	Mode string `json:"mode,omitempty"`
}

// PermanentSpec is one near-permanent (client site, website) block.
type PermanentSpec struct {
	Site string `json:"site"`
	Host string `json:"host"`
	// Mode "no-conn" (SYNs filtered) or "partial" (transfers die
	// mid-stream).
	Mode string `json:"mode"`
}

// Parse decodes and validates a spec document. A key the spec does not
// define is an error, so a misspelled knob fails by name instead of
// silently keeping its zero value, and so is anything after the
// document.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return nil, fmt.Errorf("scenario: parse: data after the spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
