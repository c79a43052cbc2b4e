package faults

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"webfail/internal/simnet"
)

func hour(h int64) simnet.Time { return simnet.FromHours(h) }

func TestTimelineBasic(t *testing.T) {
	tl := NewTimeline()
	tl.Add(Episode{Entity: "client:a", Kind: ClientConnectivity, Start: hour(5), Duration: 2 * time.Hour, Severity: 1})
	tl.Add(Episode{Entity: "client:a", Kind: LDNSOutage, Start: hour(6), Duration: time.Hour, Severity: 0.5})
	tl.Add(Episode{Entity: "www:x", Kind: ServerOutage, Start: hour(5), Duration: time.Hour, Severity: 1})
	tl.Freeze()

	a := tl.Lookup("client:a")
	if ep := tl.ActiveID(a, ClientConnectivity, hour(5).Add(time.Minute)); ep == nil || ep.Severity != 1 {
		t.Errorf("ActiveID = %+v", ep)
	}
	if tl.ActiveID(a, ClientConnectivity, hour(4)) != nil {
		t.Error("active before start")
	}
	if tl.ActiveID(a, ClientConnectivity, hour(7)) != nil {
		t.Error("active after end (end-exclusive)")
	}
	if tl.ActiveID(a, ServerOutage, hour(5)) != nil {
		t.Error("wrong kind matched")
	}
	if tl.ActiveID(tl.Lookup("client:b"), ClientConnectivity, hour(5)) != nil {
		t.Error("wrong entity matched")
	}
	if got := tl.ActiveAnyIntoID(a, hour(6).Add(time.Minute), nil); len(got) != 2 {
		t.Errorf("ActiveAnyIntoID = %d, want 2", len(got))
	}
	if tl.Len() != 3 {
		t.Errorf("Len = %d", tl.Len())
	}
	if es := tl.Entities(); len(es) != 2 || es[0] != "client:a" {
		t.Errorf("Entities = %v", es)
	}
}

func TestTimelineMostSevereWins(t *testing.T) {
	tl := NewTimeline()
	tl.Add(Episode{Entity: "www:x", Kind: ServerOutage, Start: hour(1), Duration: 10 * time.Hour, Severity: 0.3})
	tl.Add(Episode{Entity: "www:x", Kind: ServerOutage, Start: hour(2), Duration: time.Hour, Severity: 0.9})
	tl.Freeze()
	x := tl.Lookup("www:x")
	if ep := tl.ActiveID(x, ServerOutage, hour(2).Add(30*time.Minute)); ep == nil || ep.Severity != 0.9 {
		t.Errorf("got %+v", ep)
	}
	// After the short severe episode, the long mild one still applies.
	if ep := tl.ActiveID(x, ServerOutage, hour(4)); ep == nil || ep.Severity != 0.3 {
		t.Errorf("got %+v", ep)
	}
}

func TestTimelineOverlapScanBound(t *testing.T) {
	// A long episode followed by many short ones: the scan must still
	// find the long one via the max-duration bound.
	tl := NewTimeline()
	tl.Add(Episode{Entity: "e", Kind: PathOutage, Start: hour(0), Duration: 100 * time.Hour, Severity: 1})
	for i := int64(1); i < 50; i++ {
		tl.Add(Episode{Entity: "e", Kind: ServerOutage, Start: hour(i), Duration: time.Minute, Severity: 1})
	}
	tl.Freeze()
	if tl.ActiveID(tl.Lookup("e"), PathOutage, hour(99)) == nil {
		t.Error("long episode missed by scan")
	}
}

func TestFreezeDiscipline(t *testing.T) {
	tl := NewTimeline()
	tl.Add(Episode{Entity: "e", Kind: PathOutage, Start: 0, Duration: time.Hour, Severity: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("query before Freeze did not panic")
			}
		}()
		tl.ActiveID(tl.Lookup("e"), PathOutage, 0)
	}()
	tl.Freeze()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add after Freeze did not panic")
			}
		}()
		tl.Add(Episode{Entity: "e", Kind: PathOutage, Start: 0, Duration: time.Hour, Severity: 1})
	}()
}

func TestBadSeverityPanics(t *testing.T) {
	tl := NewTimeline()
	for _, sev := range []float64{0, -1, 1.5} {
		sev := sev
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("severity %v accepted", sev)
				}
			}()
			tl.Add(Episode{Entity: "e", Kind: PathOutage, Start: 0, Duration: time.Hour, Severity: sev})
		}()
	}
}

func TestGenerateRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tl := NewTimeline()
	p := Process{
		Kind:         ServerOutage,
		RatePerMonth: 10,
		MeanDuration: 30 * time.Minute,
		MinDuration:  time.Minute,
		MaxDuration:  4 * time.Hour,
		SeverityLow:  1, SeverityHigh: 1,
	}
	// Generate over 100 "months" worth for statistical stability.
	const months = 100
	tl.Generate(rng, "www:x", p, 0, simnet.FromHours(744*months))
	got := tl.Len()
	want := 10 * months
	if got < want*8/10 || got > want*12/10 {
		t.Errorf("episodes = %d, want ~%d", got, want)
	}
	tl.Freeze()
	for _, ep := range tl.Episodes("www:x") {
		if ep.Duration < time.Minute || ep.Duration > 4*time.Hour {
			t.Fatalf("duration %v out of bounds", ep.Duration)
		}
		if ep.Severity != 1 {
			t.Fatalf("severity %v", ep.Severity)
		}
	}
}

func TestGenerateZeroRate(t *testing.T) {
	tl := NewTimeline()
	tl.Generate(rand.New(rand.NewSource(1)), "e", Process{Kind: ServerOutage, RatePerMonth: 0}, 0, hour(744))
	if tl.Len() != 0 {
		t.Errorf("episodes = %d", tl.Len())
	}
}

func TestGenerateSeverityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tl := NewTimeline()
	p := Process{
		Kind: ServerOverload, RatePerMonth: 200,
		MeanDuration: time.Hour, SeverityLow: 0.2, SeverityHigh: 0.6,
	}
	tl.Generate(rng, "e", p, 0, hour(744))
	tl.Freeze()
	for _, ep := range tl.Episodes("e") {
		if ep.Severity < 0.2 || ep.Severity > 0.6 {
			t.Fatalf("severity %v outside [0.2,0.6]", ep.Severity)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	gen := func() []Episode {
		rng := rand.New(rand.NewSource(7))
		tl := NewTimeline()
		tl.Generate(rng, "e", Process{Kind: PathOutage, RatePerMonth: 50, MeanDuration: time.Hour, SeverityLow: 1, SeverityHigh: 1}, 0, hour(744))
		tl.Freeze()
		return tl.Episodes("e")
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d differs", i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := ClientConnectivity; k <= ClientMachineOff; k++ {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind string")
	}
}

func TestLookupUnknownEntity(t *testing.T) {
	tl := NewTimeline()
	tl.Add(Episode{Entity: "known", Kind: PathOutage, Start: hour(1), Duration: time.Hour, Severity: 1})
	tl.Freeze()
	if id := tl.Lookup("absent"); id != NoEntity {
		t.Errorf("Lookup(absent) = %d, want NoEntity", id)
	}
	if tl.ActiveID(NoEntity, PathOutage, hour(1)) != nil {
		t.Error("ActiveID(NoEntity) reported an episode")
	}
	if got := tl.ActiveAnyIntoID(NoEntity, hour(1), nil); got != nil {
		t.Errorf("ActiveAnyIntoID(NoEntity) = %v, want nil", got)
	}
	// Out-of-range kinds are rejected, not indexed.
	id := tl.Lookup("known")
	if tl.ActiveID(id, Kind(200), hour(1)) != nil {
		t.Error("ActiveID with out-of-range kind reported an episode")
	}
}

func TestEntityIDStability(t *testing.T) {
	// IDs are assigned in sorted-entity order at Freeze, so two timelines
	// built from the same entity set — regardless of insertion order —
	// intern every entity to the same handle.
	build := func(order []Entity) *Timeline {
		tl := NewTimeline()
		for _, e := range order {
			tl.Add(Episode{Entity: e, Kind: ServerOutage, Start: hour(1), Duration: time.Hour, Severity: 1})
		}
		tl.Freeze()
		return tl
	}
	ents := []Entity{"www:x", "client:a", "pair:a|x", "ldns:a", "prefix:1.2.3.0/24"}
	rev := make([]Entity, len(ents))
	for i, e := range ents {
		rev[len(ents)-1-i] = e
	}
	a, b := build(ents), build(rev)
	for _, e := range ents {
		if a.Lookup(e) != b.Lookup(e) {
			t.Errorf("entity %q: id %d vs %d across insertion orders", e, a.Lookup(e), b.Lookup(e))
		}
	}
	// And the handles are dense: exactly len(ents) distinct IDs in [0, n).
	seen := map[EntityID]bool{}
	for _, e := range ents {
		id := a.Lookup(e)
		if id < 0 || int(id) >= len(ents) || seen[id] {
			t.Errorf("entity %q: id %d not dense/unique", e, id)
		}
		seen[id] = true
	}
}

func TestActiveIDMatchesActive(t *testing.T) {
	// Property: over randomized timelines, the interned query is nil
	// exactly when a linear scan over every episode finds no covering
	// episode of that kind, and otherwise points at the episode the scan
	// picks — the most severe, ties going to the earliest in start-sorted
	// insertion order — inside the frozen index. Entity "d" has episodes
	// of kinds a, b and c never have, so every query about it, and about
	// them for d's kinds, is answered by the kind mask; NoEntity, an
	// entity with no episodes and out-of-range kinds are queried too.
	entities := []Entity{"a", "b", "c", "d"}
	kinds := []Kind{ClientConnectivity, PathOutage, ServerOutage, BGPInstability}
	dKinds := []Kind{LDNSOutage, ServerHTTPError}
	f := func(seed int64, queries []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		n := 5 + rng.Intn(40)
		var all []Episode
		for i := 0; i < n; i++ {
			e := entities[rng.Intn(len(entities))]
			k := kinds[rng.Intn(len(kinds))]
			if e == "d" {
				k = dKinds[rng.Intn(len(dKinds))]
			}
			ep := Episode{
				Entity:   e,
				Kind:     k,
				Start:    simnet.Time(rng.Intn(5000)) * simnet.Time(time.Minute),
				Duration: time.Duration(1+rng.Intn(600)) * time.Minute,
				// Few distinct severities, so ties occur and the
				// tie-break is checked too.
				Severity: float64(1+rng.Intn(4)) / 4,
				// A distinct Mode per episode, so comparing values
				// tells tied episodes apart.
				Mode: uint8(i),
			}
			all = append(all, ep)
			tl.Add(ep)
		}
		tl.Freeze()
		sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
		for _, q := range queries {
			at := simnet.Time(q) * simnet.Time(time.Minute)
			for _, e := range append(entities, "absent") {
				id := tl.Lookup(e)
				for k := Kind(0); int(k) <= numKinds; k++ {
					var want *Episode
					for i, ep := range all {
						if ep.Entity == e && ep.Kind == k && ep.Contains(at) && (want == nil || ep.Severity > want.Severity) {
							want = &all[i]
						}
					}
					got := tl.ActiveID(id, k, at)
					if (got == nil) != (want == nil) {
						t.Logf("entity %q kind %v at %v: got %+v, want %+v", e, k, at, got, want)
						return false
					}
					if got == nil {
						continue
					}
					if *got != *want || !inIndex(tl, id, k, got) {
						t.Logf("entity %q kind %v at %v: got %+v (in index: %v), want %+v", e, k, at, *got, inIndex(tl, id, k, got), *want)
						return false
					}
				}
			}
			for _, k := range []Kind{ClientConnectivity, Kind(200)} {
				if got := tl.ActiveID(NoEntity, k, at); got != nil {
					t.Logf("NoEntity kind %v at %v: got %+v", k, at, *got)
					return false
				}
			}
			for _, e := range entities {
				if id := tl.Lookup(e); id != NoEntity && tl.ActiveID(id, Kind(200), at) != nil {
					t.Logf("entity %q: out-of-range kind reported an episode", e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// inIndex reports whether ep points at an element of the frozen
// (id, kind) index, rather than at a copy.
func inIndex(tl *Timeline, id EntityID, kind Kind, ep *Episode) bool {
	eps := tl.kindEps[int(id)*numKinds+int(kind)]
	for i := range eps {
		if &eps[i] == ep {
			return true
		}
	}
	return false
}

func TestActiveAnyIntoEquivalence(t *testing.T) {
	tl := NewTimeline()
	for i := int64(0); i < 20; i++ {
		tl.Add(Episode{Entity: "e", Kind: Kind(i % 4), Start: hour(i % 7), Duration: 3 * time.Hour, Severity: 1})
	}
	tl.Freeze()
	id := tl.Lookup("e")
	buf := make([]Episode, 0, 4)
	for h := int64(0); h < 12; h++ {
		want := tl.ActiveAnyIntoID(id, hour(h), nil)
		buf = tl.ActiveAnyIntoID(id, hour(h), buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("hour %d: reused buffer = %d episodes, fresh = %d", h, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("hour %d episode %d: %+v != %+v", h, i, buf[i], want[i])
			}
		}
	}
	// Append semantics: existing buf contents are preserved.
	sentinel := Episode{Entity: "sentinel", Kind: PathOutage, Start: hour(999), Duration: time.Hour, Severity: 1}
	got := tl.ActiveAnyIntoID(id, hour(1), []Episode{sentinel})
	if len(got) == 0 || got[0] != sentinel {
		t.Error("ActiveAnyIntoID clobbered the existing buffer prefix")
	}
}

func TestActivePropertyConsistency(t *testing.T) {
	// ActiveID(e,k,t) is nil exactly when a brute-force scan over all
	// episodes finds none covering t, and otherwise covers t. "e" also
	// has episodes of another kind, which the PathOutage query skips;
	// the kind the entity lacks and NoEntity must both answer nil.
	f := func(starts []uint16, durs []uint8, query uint16) bool {
		tl := NewTimeline()
		var eps []Episode
		for i := range starts {
			durRaw := uint8(7)
			if len(durs) > 0 {
				durRaw = durs[i%len(durs)]
			}
			d := time.Duration(int(durRaw)+1) * time.Minute
			ep := Episode{
				Entity:   "e",
				Kind:     PathOutage,
				Start:    simnet.Time(starts[i]) * simnet.Time(time.Minute),
				Duration: d,
				Severity: 1,
			}
			eps = append(eps, ep)
			tl.Add(ep)
			if i%2 == 1 {
				ep.Kind = ServerOutage
				ep.Start += simnet.Time(time.Hour)
				tl.Add(ep)
			}
		}
		tl.Freeze()
		at := simnet.Time(query) * simnet.Time(time.Minute)
		id := tl.Lookup("e")
		got := tl.ActiveID(id, PathOutage, at)
		want := false
		for _, ep := range eps {
			if ep.Contains(at) {
				want = true
			}
		}
		if got != nil && (got.Kind != PathOutage || !got.Contains(at)) {
			return false
		}
		return (got != nil) == want && tl.ActiveID(id, LDNSOutage, at) == nil && tl.ActiveID(NoEntity, PathOutage, at) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
