package faults

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"webfail/internal/simnet"
)

// benchTimeline builds a frozen timeline shaped like a real scenario's:
// a few hundred entities, a handful of kinds, episodes scattered over a
// month.
func benchTimeline(nEntities, epsPerEntity int) (*Timeline, []Entity) {
	rng := rand.New(rand.NewSource(42))
	tl := NewTimeline()
	ents := make([]Entity, nEntities)
	kinds := []Kind{ClientConnectivity, PathOutage, ServerOutage, BGPInstability}
	for i := range ents {
		ents[i] = Entity(fmt.Sprintf("www:site-%03d.example.com", i))
		for j := 0; j < epsPerEntity; j++ {
			tl.Add(Episode{
				Entity:   ents[i],
				Kind:     kinds[rng.Intn(len(kinds))],
				Start:    simnet.Time(rng.Intn(744)) * simnet.Time(time.Hour),
				Duration: time.Duration(1+rng.Intn(240)) * time.Minute,
				Severity: 1,
			})
		}
	}
	tl.Freeze()
	return tl, ents
}

// Package-level sinks keep the compiler from discarding the benchmarked
// queries' results.
var (
	sinkEpisode  *Episode
	sinkEpisodes []Episode
)

// BenchmarkTimelineActive measures the interned-handle query paths the
// fast-mode evaluator uses. Every benchmark entity has episodes, so
// "interned" times the search; most of the evaluator's queries find no
// episode before any search, which "absent-kind" (an entity without
// episodes of the kind) and "no-entity" (a handle with no episodes at
// all) time.
func BenchmarkTimelineActive(b *testing.B) {
	tl, ents := benchTimeline(300, 12)
	at := simnet.Time(372) * simnet.Time(time.Hour) // mid-month
	ids := make([]EntityID, len(ents))
	for i, e := range ents {
		ids[i] = tl.Lookup(e)
	}
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEpisode = tl.ActiveID(ids[i%len(ids)], PathOutage, at)
		}
	})
	b.Run("absent-kind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEpisode = tl.ActiveID(ids[i%len(ids)], ClientMachineOff, at)
		}
	})
	b.Run("no-entity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEpisode = tl.ActiveID(NoEntity, PathOutage, at)
		}
	})
	b.Run("any-into", func(b *testing.B) {
		buf := make([]Episode, 0, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = tl.ActiveAnyIntoID(ids[i%len(ids)], at, buf[:0])
		}
		sinkEpisodes = buf
	})
}
