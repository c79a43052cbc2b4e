package workload

import (
	"net/netip"

	"webfail/internal/faults"
)

// Roster entities are named on the fault timeline as kind:name —
// client:<name> (a client machine), site:<site> (a client site: its last
// mile and LDNS), prefix:<p> (a client site's /24 or a website prefix),
// www:<host> (a website's servers and authoritative DNS),
// replica:<addr> (one server address) and pair:<site>|<host> (a
// permanent client-site×website block). BuildScenario places episodes
// under these names and EntityIDs resolves them; no other package spells
// them.

func clientEntity(name string) faults.Entity   { return faults.Entity("client:" + name) }
func siteEntity(site string) faults.Entity     { return faults.Entity("site:" + site) }
func websiteEntity(host string) faults.Entity  { return faults.Entity("www:" + host) }
func replicaEntity(a netip.Addr) faults.Entity { return faults.Entity("replica:" + a.String()) }

// PrefixEntity names a monitored prefix on the fault timeline, for
// callers that read a prefix's episodes with Timeline.Episodes.
func PrefixEntity(p netip.Prefix) faults.Entity { return faults.Entity("prefix:" + p.String()) }

// pairEntity names the permanent block of a client site and a website.
func pairEntity(site, host string) faults.Entity { return faults.Entity("pair:" + site + "|" + host) }

// EntityTable is a topology's roster resolved to fault-timeline handles:
// every entity a transaction can touch, by roster index. An entity with
// no episodes resolves to faults.NoEntity, which every timeline query
// reports as inactive. The table is read-only once built, so the shards
// of a run share one.
type EntityTable struct {
	// By client index: the client, its site and its site's prefix.
	Client, Site, ClientPrefix []faults.EntityID
	// By website index.
	Website []faults.EntityID
	// By website, then replica index: each replica and the website
	// prefix that holds it.
	Replica, ReplicaPrefix [][]faults.EntityID
	// By website, then WebsiteNode.Prefixes index.
	Prefixes [][]faults.EntityID

	// pairs lists, by client index, the blocked websites of the
	// client's site.
	pairs [][]blockedPair
}

type blockedPair struct {
	website int32
	id      faults.EntityID
}

// EntityIDs resolves topo's roster against the scenario's current
// timeline. Resolving costs milliseconds at 10k clients, so a run or a
// ground-truth join resolves once and indexes the table thereafter.
// Pair entries come from PermanentPairs.
func (sc *Scenario) EntityIDs(topo *Topology) *EntityTable {
	tl := sc.Timeline
	nc, nw := len(topo.Clients), len(topo.Websites)
	t := &EntityTable{
		Client:        make([]faults.EntityID, nc),
		Site:          make([]faults.EntityID, nc),
		ClientPrefix:  make([]faults.EntityID, nc),
		Website:       make([]faults.EntityID, nw),
		Replica:       make([][]faults.EntityID, nw),
		ReplicaPrefix: make([][]faults.EntityID, nw),
		Prefixes:      make([][]faults.EntityID, nw),
		pairs:         make([][]blockedPair, nc),
	}
	siteClients := make(map[string][]int32)
	for i := range topo.Clients {
		c := &topo.Clients[i]
		t.Client[i] = tl.Lookup(clientEntity(c.Name))
		t.Site[i] = tl.Lookup(siteEntity(c.Site))
		t.ClientPrefix[i] = tl.Lookup(PrefixEntity(c.Prefix))
		siteClients[c.Site] = append(siteClients[c.Site], int32(i))
	}
	for j := range topo.Websites {
		w := &topo.Websites[j]
		t.Website[j] = tl.Lookup(websiteEntity(w.Host))
		pfx := make([]faults.EntityID, len(w.Prefixes))
		for k, p := range w.Prefixes {
			pfx[k] = tl.Lookup(PrefixEntity(p))
		}
		rep := make([]faults.EntityID, len(w.ReplicaAddrs))
		repPfx := make([]faults.EntityID, len(w.ReplicaAddrs))
		for k, a := range w.ReplicaAddrs {
			rep[k] = tl.Lookup(replicaEntity(a))
			repPfx[k] = faults.NoEntity
			for pi, p := range w.Prefixes {
				if p.Contains(a) {
					repPfx[k] = pfx[pi]
					break
				}
			}
		}
		t.Prefixes[j], t.Replica[j], t.ReplicaPrefix[j] = pfx, rep, repPfx
	}
	for _, pp := range sc.PermanentPairs {
		wi := topo.WebsiteIndex(pp[1])
		if wi < 0 {
			continue
		}
		bp := blockedPair{website: int32(wi), id: tl.Lookup(pairEntity(pp[0], pp[1]))}
		for _, ci := range siteClients[pp[0]] {
			t.pairs[ci] = append(t.pairs[ci], bp)
		}
	}
	return t
}

// Pair returns the permanent-block entity of client's site and website,
// or faults.NoEntity when the pair is not blocked.
func (t *EntityTable) Pair(client, website int) faults.EntityID {
	for _, bp := range t.pairs[client] {
		if int(bp.website) == website {
			return bp.id
		}
	}
	return faults.NoEntity
}

// Touched lists, in a fixed order and without repeats, the entities with
// episodes that a transaction of client against website can touch: the
// client, its site and prefix, the website, each replica followed by its
// prefix, and the pair block. Both engines render exemplar context from
// it.
func (t *EntityTable) Touched(client, website int) []faults.EntityID {
	reps := t.Replica[website]
	ids := make([]faults.EntityID, 0, 5+2*len(reps))
	add := func(id faults.EntityID) {
		if id == faults.NoEntity {
			return
		}
		for _, have := range ids {
			if have == id {
				return
			}
		}
		ids = append(ids, id)
	}
	add(t.Client[client])
	add(t.Site[client])
	add(t.ClientPrefix[client])
	add(t.Website[website])
	for k := range reps {
		add(reps[k])
		add(t.ReplicaPrefix[website][k])
	}
	add(t.Pair(client, website))
	return ids
}
