// Package faults provides the fault-injection substrate of the
// reproduction: timelines of fault episodes attached to named entities,
// with efficient point-in-time queries, plus a Poisson episode generator
// used to build paper-calibrated schedules. The package names no roster
// entity: internal/workload decides how clients, sites, prefixes,
// websites, replicas and blocked pairs are named, and resolves a roster
// to EntityID handles once per run.
//
// The timeline doubles as the experiment's *ground truth*: the paper could
// only validate its blame-attribution methodology indirectly
// (Section 4.4.6); with injected faults we can also validate it directly,
// comparing inferred client-side/server-side episodes against the schedule
// that actually produced the failures.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"webfail/internal/simnet"
)

// Kind classifies what a fault episode breaks.
type Kind uint8

// Fault kinds, named for the component they disable.
const (
	// ClientConnectivity is a last-mile outage at the client: both the
	// LDNS and the wide area become unreachable. Manifests as DNS
	// (LDNS timeout) failures, per Section 4.4.4's observation that
	// client connectivity problems preclude TCP attempts.
	ClientConnectivity Kind = iota
	// LDNSOutage is the client's local DNS server being down or
	// unreachable while the client's own connectivity is fine.
	LDNSOutage
	// AuthDNSOutage makes a website's authoritative DNS unreachable
	// (non-LDNS timeout at clients).
	AuthDNSOutage
	// AuthDNSMisconfig makes a website's authoritative DNS return
	// errors (SERVFAIL/NXDOMAIN) — the brazzil.com/espn.com pattern.
	AuthDNSMisconfig
	// ServerOutage takes a server machine (one replica) off the
	// network: SYNs go unanswered.
	ServerOutage
	// ServerOverload wedges the server application: connections
	// complete but responses hang, stall, or abort.
	ServerOverload
	// ServerHTTPError makes the server return HTTP errors.
	ServerHTTPError
	// PathOutage breaks the network path between a client-side entity
	// and the wide area, or between the wide area and a server-side
	// prefix, depending on which entity it is attached to.
	PathOutage
	// BGPInstability is a routing event for a prefix; it couples a
	// reachability outage with a BGP withdrawal storm whose neighbor
	// fraction is the episode's Severity.
	BGPInstability
	// PermanentBlock models the near-permanent client-site×website
	// failures of Section 4.4.2 (e.g., PlanetLab sites vs Chinese
	// sites); attached to a pair entity.
	PermanentBlock
	// ClientMachineOff marks a client machine as powered off or
	// crashed: it makes NO accesses at all (Section 4.4.4 notes this
	// asymmetry — an off client contributes no failures because it
	// issues no requests).
	ClientMachineOff
)

var kindNames = map[Kind]string{
	ClientConnectivity: "client-connectivity",
	LDNSOutage:         "ldns-outage",
	AuthDNSOutage:      "authdns-outage",
	AuthDNSMisconfig:   "authdns-misconfig",
	ServerOutage:       "server-outage",
	ServerOverload:     "server-overload",
	ServerHTTPError:    "server-http-error",
	PathOutage:         "path-outage",
	BGPInstability:     "bgp-instability",
	PermanentBlock:     "permanent-block",
	ClientMachineOff:   "client-machine-off",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind resolves a kind's string name (as printed by Kind.String) back
// to the Kind, for declarative scenario specs that reference fault kinds
// by name.
func ParseKind(name string) (Kind, bool) {
	for k, s := range kindNames {
		if s == name {
			return k, true
		}
	}
	return 0, false
}

// numKinds bounds the Kind space for the per-kind episode index built at
// Freeze time.
const numKinds = int(ClientMachineOff) + 1

// Freeze records each entity's kinds as a uint16 bit mask. This constant
// overflows, and the package fails to build, once there are more than
// 16 kinds.
const _ uint16 = 1 << (numKinds - 1)

// Entity names the thing an episode applies to.
type Entity string

// EntityID is a dense integer handle for an Entity, assigned by Freeze in
// sorted entity order. Hot paths resolve entities to IDs once (Lookup) and
// then query with ActiveID/ActiveAnyIntoID, which index arrays instead of
// hashing strings.
type EntityID int32

// NoEntity is returned by Lookup for entities with no episodes. Queries
// against it report no active episode.
const NoEntity EntityID = -1

// Episode is one fault interval.
type Episode struct {
	Entity Entity
	Kind   Kind
	Start  simnet.Time
	// Duration of the fault.
	Duration time.Duration
	// Severity in (0,1]: the probability that an operation touching
	// the faulty component during the episode fails. 1.0 is a hard
	// outage; lower values model flaky, overloaded, or partially
	// filtered components. For BGPInstability it is also the fraction
	// of BGP neighbors that withdraw.
	Severity float64
	// Mode carries kind-specific detail (an httpsim.AppMode for
	// ServerOverload, a dnswire rcode selector for AuthDNSMisconfig).
	Mode uint8
}

// End returns the first instant after the episode.
func (e Episode) End() simnet.Time { return e.Start.Add(e.Duration) }

// Contains reports whether t falls inside the episode.
func (e Episode) Contains(t simnet.Time) bool { return t >= e.Start && t < e.End() }

// Timeline stores episodes indexed by entity, supporting fast
// point-in-time queries. Build with Add calls, then call Freeze once
// before querying (Add after Freeze panics). Freeze also interns every
// entity into a dense EntityID and builds a per-entity kind mask and a
// per-(entity, kind) episode index, so a query through Lookup + ActiveID
// for a kind the entity never has costs one inlined load, and any other
// a binary search — no string hashing, no kind-filter scan.
type Timeline struct {
	byEntity map[Entity][]Episode
	maxDur   map[Entity]time.Duration
	frozen   bool

	// Interned index, built by Freeze. entities doubles as the cached
	// result of Entities(). kinds[id] has bit k set when the entity has
	// an episode of kind k. kindEps/kindMax are flattened
	// [entity x kind] tables indexed by int(id)*numKinds + int(kind);
	// eps/epsMax are the per-entity all-kind views used by
	// ActiveAnyIntoID.
	ids      map[Entity]EntityID
	entities []Entity
	kinds    []uint16
	eps      [][]Episode
	epsMax   []time.Duration
	kindEps  [][]Episode
	kindMax  []time.Duration
}

// NewTimeline creates an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{
		byEntity: make(map[Entity][]Episode),
		maxDur:   make(map[Entity]time.Duration),
	}
}

// Add inserts an episode.
func (t *Timeline) Add(ep Episode) {
	if t.frozen {
		panic("faults: Add after Freeze")
	}
	if ep.Severity <= 0 || ep.Severity > 1 {
		panic(fmt.Sprintf("faults: episode severity %v out of (0,1]", ep.Severity))
	}
	if int(ep.Kind) >= numKinds {
		panic(fmt.Sprintf("faults: unknown kind %d", ep.Kind))
	}
	t.byEntity[ep.Entity] = append(t.byEntity[ep.Entity], ep)
	if ep.Duration > t.maxDur[ep.Entity] {
		t.maxDur[ep.Entity] = ep.Duration
	}
}

// Freeze sorts the timeline for querying and builds the interned index.
// The sort is stable so episodes sharing a Start keep their
// (deterministic) insertion order; an unstable sort would make the visit
// order — and thus any severity ties resolved by it — vary run to run.
// EntityIDs are assigned in sorted entity order, so two timelines holding
// the same entity set intern identically.
func (t *Timeline) Freeze() {
	for _, eps := range t.byEntity {
		sort.SliceStable(eps, func(i, j int) bool { return eps[i].Start < eps[j].Start })
	}
	t.entities = make([]Entity, 0, len(t.byEntity))
	for e := range t.byEntity {
		t.entities = append(t.entities, e)
	}
	sort.Slice(t.entities, func(i, j int) bool { return t.entities[i] < t.entities[j] })
	t.ids = make(map[Entity]EntityID, len(t.entities))
	t.kinds = make([]uint16, len(t.entities))
	t.eps = make([][]Episode, len(t.entities))
	t.epsMax = make([]time.Duration, len(t.entities))
	t.kindEps = make([][]Episode, len(t.entities)*numKinds)
	t.kindMax = make([]time.Duration, len(t.entities)*numKinds)
	for id, e := range t.entities {
		t.ids[e] = EntityID(id)
		eps := t.byEntity[e]
		t.eps[id] = eps
		t.epsMax[id] = t.maxDur[e]
		for _, ep := range eps {
			t.kinds[id] |= 1 << ep.Kind
			idx := id*numKinds + int(ep.Kind)
			t.kindEps[idx] = append(t.kindEps[idx], ep)
			if ep.Duration > t.kindMax[idx] {
				t.kindMax[idx] = ep.Duration
			}
		}
	}
	t.frozen = true
}

// Lookup resolves an entity to its interned ID, or NoEntity when the
// entity has no episodes. Resolve once outside hot loops, then query with
// ActiveID / ActiveAnyIntoID.
func (t *Timeline) Lookup(e Entity) EntityID {
	if !t.frozen {
		panic("faults: query before Freeze")
	}
	if id, ok := t.ids[e]; ok {
		return id
	}
	return NoEntity
}

// ActiveID returns the most severe episode of the given kind covering
// instant at for the entity, or nil when none does; severity ties go to
// the earliest in start-sorted insertion order. The result points into
// the frozen index: read it, never write through it.
//
// Most queries find nothing, and this front answers them without a
// search: NoEntity, and an entity with no episode of the kind (an
// out-of-range kind shifts out of the mask), cost one load. The front is
// small enough for the compiler to inline; scripts/verify.sh fails if it
// stops being so. Querying a real handle before Freeze panics, as the
// mask it reads does not exist yet.
func (t *Timeline) ActiveID(id EntityID, kind Kind, at simnet.Time) *Episode {
	if id < 0 || t.kinds[id]&(1<<kind) == 0 {
		return nil
	}
	return t.search(id, kind, at)
}

// search is ActiveID's out-of-line half: a binary search of the
// (entity, kind) index for the episodes that can contain at, then the
// most severe of those that do.
func (t *Timeline) search(id EntityID, kind Kind, at simnet.Time) *Episode {
	idx := int(id)*numKinds + int(kind)
	eps := t.kindEps[idx]
	var best *Episode
	// Episodes with Start in (at-maxDur, at] can contain at.
	for i := searchAfter(eps, at.Add(-t.kindMax[idx])-1); i < len(eps) && eps[i].Start <= at; i++ {
		if eps[i].Contains(at) && (best == nil || eps[i].Severity > best.Severity) {
			best = &eps[i]
		}
	}
	return best
}

// ActiveAnyIntoID appends every episode (any kind) covering instant at
// for the entity to buf and returns the extended slice. Passing a reused
// buf[:0] makes the query allocation-free in steady state. Episodes are
// appended in start-sorted (insertion-stable) order, the same order
// ActiveID resolves severity ties in.
func (t *Timeline) ActiveAnyIntoID(id EntityID, at simnet.Time, buf []Episode) []Episode {
	if !t.frozen {
		panic("faults: query before Freeze")
	}
	if id < 0 {
		return buf
	}
	eps := t.eps[id]
	if len(eps) == 0 {
		return buf
	}
	i := searchAfter(eps, at.Add(-t.epsMax[id])-1)
	for ; i < len(eps) && eps[i].Start <= at; i++ {
		if eps[i].Contains(at) {
			buf = append(buf, eps[i])
		}
	}
	return buf
}

// searchAfter returns the first index in the start-sorted eps whose Start
// exceeds lo (hand-rolled binary search: closure-free for the hot path).
func searchAfter(eps []Episode, lo simnet.Time) int {
	i, j := 0, len(eps)
	for i < j {
		h := int(uint(i+j) >> 1)
		if eps[h].Start <= lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Episodes returns the entity's episodes (sorted once frozen).
func (t *Timeline) Episodes(e Entity) []Episode { return t.byEntity[e] }

// Entities returns all entity names with at least one episode, sorted.
// Once frozen, the slice is computed exactly once (at Freeze) and shared —
// callers must not mutate it.
func (t *Timeline) Entities() []Entity {
	if t.frozen {
		return t.entities
	}
	out := make([]Entity, 0, len(t.byEntity))
	for e := range t.byEntity {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the total episode count.
func (t *Timeline) Len() int {
	n := 0
	for _, eps := range t.byEntity {
		n += len(eps)
	}
	return n
}

// Process describes a stochastic episode process for one entity: episodes
// arrive Poisson with the given monthly rate; durations are exponential
// with the given mean, clamped to [MinDuration, MaxDuration].
type Process struct {
	Kind Kind
	Mode uint8
	// RatePerMonth is the expected episode count over 744 hours.
	RatePerMonth float64
	MeanDuration time.Duration
	MinDuration  time.Duration
	MaxDuration  time.Duration
	// SeverityLow/High bound the uniformly drawn severity.
	SeverityLow, SeverityHigh float64
}

// Generate draws the process's episodes for entity over [start, end) and
// adds them to the timeline.
func (t *Timeline) Generate(rng *rand.Rand, e Entity, p Process, start, end simnet.Time) {
	if p.RatePerMonth <= 0 {
		return
	}
	span := end.Sub(start)
	const month = 744 * time.Hour
	mean := p.RatePerMonth * float64(span) / float64(month)
	n := poisson(rng, mean)
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(rng.Int63n(int64(span))))
		dur := time.Duration(rng.ExpFloat64() * float64(p.MeanDuration))
		if dur < p.MinDuration {
			dur = p.MinDuration
		}
		if p.MaxDuration > 0 && dur > p.MaxDuration {
			dur = p.MaxDuration
		}
		if dur <= 0 {
			dur = time.Minute
		}
		sev := p.SeverityLow
		if p.SeverityHigh > p.SeverityLow {
			sev += rng.Float64() * (p.SeverityHigh - p.SeverityLow)
		}
		if sev <= 0 {
			sev = 1.0
		}
		if sev > 1 {
			sev = 1
		}
		t.Add(Episode{
			Entity:   e,
			Kind:     p.Kind,
			Mode:     p.Mode,
			Start:    at,
			Duration: dur,
			Severity: sev,
		})
	}
}

// poisson draws a Poisson variate via inversion of the exponential
// inter-arrival representation (robust for the small means used here).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	n := 0
	acc := 0.0
	for acc < mean {
		acc += rng.ExpFloat64()
		if acc < mean {
			n++
		}
		if n > 1_000_000 {
			break
		}
	}
	return n
}
