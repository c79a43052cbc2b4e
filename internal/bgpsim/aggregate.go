package bgpsim

import (
	"net/netip"
	"sort"
)

// neighborSet is a bitset over the 73 peering sessions.
type neighborSet [2]uint64

func (s *neighborSet) add(peer uint8) { s[peer/64] |= 1 << (peer % 64) }

func (s neighborSet) count() int {
	return popcount(s[0]) + popcount(s[1])
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// HourStats aggregates one prefix's updates over one 1-hour episode — the
// unit of the paper's BGP analysis (Section 3.6: "the number of BGP route
// withdrawals and number of BGP route announcements heard for each client
// or server prefix in each 1-hour episode", plus participating-neighbor
// counts).
type HourStats struct {
	Announcements int
	Withdrawals   int

	annNeighbors neighborSet
	wdrNeighbors neighborSet

	// annAdjust/wdrAdjust are neighbor-count corrections applied by
	// Clean for reset hours; stored separately so the raw observation
	// stays available.
	annAdjust int
	wdrAdjust int
}

// AnnounceNeighbors reports how many distinct sessions announced.
func (h *HourStats) AnnounceNeighbors() int { return h.annNeighbors.count() }

// WithdrawNeighbors reports how many distinct sessions withdrew.
func (h *HourStats) WithdrawNeighbors() int { return h.wdrNeighbors.count() }

// PrefixHourTable maps prefix → hour index → stats. Hours without updates
// have no entry.
type PrefixHourTable map[netip.Prefix]map[int64]*HourStats

// Aggregate builds the per-prefix per-hour table from an update stream.
func Aggregate(updates []Update) PrefixHourTable {
	t := make(PrefixHourTable)
	for _, u := range updates {
		hours := t[u.Prefix]
		if hours == nil {
			hours = make(map[int64]*HourStats)
			t[u.Prefix] = hours
		}
		h := u.At.Hour()
		st := hours[h]
		if st == nil {
			st = &HourStats{}
			hours[h] = st
		}
		switch u.Kind {
		case Announce:
			st.Announcements++
			st.annNeighbors.add(u.Peer)
		case Withdraw:
			st.Withdrawals++
			st.wdrNeighbors.add(u.Peer)
		}
	}
	return t
}

// Get returns the stats for (prefix, hour), or an empty value.
func (t PrefixHourTable) Get(pfx netip.Prefix, hour int64) HourStats {
	if hours, ok := t[pfx]; ok {
		if st, ok := hours[hour]; ok {
			return *st
		}
	}
	return HourStats{}
}

// Hours returns the sorted hour indices present for a prefix.
func (t PrefixHourTable) Hours(pfx netip.Prefix) []int64 {
	hours := t[pfx]
	out := make([]int64, 0, len(hours))
	for h := range hours {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CleanConfig parameterizes the reset-cleaning heuristic. The paper uses
// 60,000 prefixes ("at least half the routing table") as the reset
// threshold; our monitored table is far smaller, so the threshold is the
// same *fraction* applied to the monitored prefix count.
type CleanConfig struct {
	// ResetFraction is the fraction of monitored prefixes that must
	// receive announcements in one hour to presume a collector reset
	// (paper: ~0.5 of the table).
	ResetFraction float64
	// TotalPrefixes is the size of the monitored table.
	TotalPrefixes int
}

// Clean applies the paper's data-cleaning procedure (Section 3.6, after
// Wang et al. [31]): for each hour in which more than
// ResetFraction×TotalPrefixes prefixes received announcements, presume a
// collector reset; compute the average per-prefix announcement count and
// announcing-neighbor count in that hour, and subtract those averages from
// every prefix's counts for the hour (clamping at zero). The same is done
// for withdrawals. It returns the set of hours flagged as resets.
func Clean(t PrefixHourTable, cfg CleanConfig) map[int64]bool {
	if cfg.TotalPrefixes == 0 || cfg.ResetFraction <= 0 {
		return nil
	}
	// Count announcing prefixes per hour.
	perHourAnnPrefixes := make(map[int64]int)
	for _, hours := range t {
		for h, st := range hours {
			if st.Announcements > 0 {
				perHourAnnPrefixes[h]++
			}
		}
	}
	threshold := int(cfg.ResetFraction * float64(cfg.TotalPrefixes))
	resets := make(map[int64]bool)
	for h, n := range perHourAnnPrefixes {
		if n > threshold {
			resets[h] = true
		}
	}
	for h := range resets {
		// Averages across prefixes active in the reset hour.
		var annSum, annNbrSum, wdrSum, wdrNbrSum, count int
		for _, hours := range t {
			if st, ok := hours[h]; ok {
				annSum += st.Announcements
				annNbrSum += st.AnnounceNeighbors()
				wdrSum += st.Withdrawals
				wdrNbrSum += st.WithdrawNeighbors()
				count++
			}
		}
		if count == 0 {
			continue
		}
		avgAnn := annSum / count
		avgAnnNbr := annNbrSum / count
		avgWdr := wdrSum / count
		avgWdrNbr := wdrNbrSum / count
		for _, hours := range t {
			st, ok := hours[h]
			if !ok {
				continue
			}
			st.Announcements = max(0, st.Announcements-avgAnn)
			st.Withdrawals = max(0, st.Withdrawals-avgWdr)
			st.annAdjust = avgAnnNbr
			st.wdrAdjust = avgWdrNbr
		}
	}
	return resets
}

// annAdjust/wdrAdjust are neighbor-count corrections applied by Clean;
// they are stored rather than mutating the bitsets so the raw observation
// remains available.
func (h *HourStats) adjustedAnnNeighbors() int {
	n := h.annNeighbors.count() - h.annAdjust
	if n < 0 {
		return 0
	}
	return n
}

func (h *HourStats) adjustedWdrNeighbors() int {
	n := h.wdrNeighbors.count() - h.wdrAdjust
	if n < 0 {
		return 0
	}
	return n
}

// CleanedAnnounceNeighbors returns the announcing-neighbor count after any
// reset correction.
func (h *HourStats) CleanedAnnounceNeighbors() int { return h.adjustedAnnNeighbors() }

// CleanedWithdrawNeighbors returns the withdrawing-neighbor count after
// any reset correction.
func (h *HourStats) CleanedWithdrawNeighbors() int { return h.adjustedWdrNeighbors() }

// Instability definitions from Section 4.6.

// SevereInstability70 reports the paper's first definition: at least 70 of
// the 73 neighbors withdrew the prefix within the hour.
func SevereInstability70(st HourStats) bool {
	return st.CleanedWithdrawNeighbors() >= 70
}

// SevereInstability50x75 reports the paper's second definition: at least
// 50 neighbors withdrawing with at least 75 withdrawal messages in all.
func SevereInstability50x75(st HourStats) bool {
	return st.CleanedWithdrawNeighbors() >= 50 && st.Withdrawals >= 75
}
