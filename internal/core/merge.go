package core

import (
	"fmt"
	"slices"
)

// Merge folds other's accumulated state into a. Both accumulators must
// have been built over the same topology and window (same client/site
// rosters, bin duration, and hour count) and with the same analyzer
// pass set; Merge errors otherwise and leaves both unchanged.
//
// Merge consumes other: the grid pages a lacks move into a instead of
// being copied, and other gives them up. Read nothing from other
// afterwards; records added to it later do not reach a.
//
// Every counter merges by addition, which is order-independent, so any
// merge order yields the same grids, pair counts, and category
// totals. The two order-sensitive pieces are handled as follows:
//
//   - Failure records append in call order. Callers recovering a serial
//     run's exact output (measure.RunParallel feeding one accumulator per
//     shard) must merge shards in shard-index order — the serial record
//     stream is client-major, and shards are contiguous client ranges.
//   - Streak fields (longest consecutive-failure run per client-hour) are
//     exact only when the two accumulators saw disjoint client sets, as
//     RunParallel shards guarantee; merging overlapping client traffic
//     would need the record streams interleaved, which accumulators do
//     not retain.
func (a *Analysis) Merge(other *Analysis) error {
	switch {
	case other == nil:
		return nil
	case a.nClients != other.nClients || a.nSites != other.nSites:
		return fmt.Errorf("core: merge of mismatched rosters (%dx%d vs %dx%d)",
			a.nClients, a.nSites, other.nClients, other.nSites)
	case a.Hours != other.Hours || a.binNS != other.binNS || a.StartHour != other.StartHour:
		return fmt.Errorf("core: merge of mismatched windows (%d bins of %dns from %d vs %d bins of %dns from %d)",
			a.Hours, a.binNS, a.StartHour, other.Hours, other.binNS, other.StartHour)
	case !slices.Equal(a.passes, other.passes):
		return fmt.Errorf("core: merge of mismatched pass sets (%v vs %v)",
			a.passes, other.passes)
	case a.replicas != nil && len(a.replicas.replicaAddrs) != len(other.replicas.replicaAddrs):
		return fmt.Errorf("core: merge of mismatched replica indexes (%d vs %d)",
			len(a.replicas.replicaAddrs), len(other.replicas.replicaAddrs))
	}
	// The pass sets are equal, so each typed handle is set on both sides
	// or on neither. Passes merge in canonical order, stopping at the
	// first error.
	err := a.totals.merge(other.totals)
	if err == nil && a.traffic != nil {
		err = a.traffic.merge(other.traffic)
	}
	if err == nil && a.grids != nil {
		err = a.grids.merge(other.grids)
	}
	if err == nil && a.fails != nil {
		err = a.fails.merge(other.fails)
	}
	if err == nil && a.pairs != nil {
		err = a.pairs.merge(other.pairs)
	}
	if err == nil && a.replicas != nil {
		err = a.replicas.merge(other.replicas)
	}
	if err == nil && a.conns != nil {
		err = a.conns.merge(other.conns)
	}
	return err
}
