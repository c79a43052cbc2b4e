package scenario

import (
	"fmt"

	"webfail/internal/faults"
	"webfail/internal/workload"
)

// weightTolerance is the slack allowed when checking that a weight list
// sums to 1 (decimal JSON cannot represent thirds exactly).
const weightTolerance = 1e-6

func parseCategory(s string) (workload.Category, bool) {
	switch s {
	case "PL":
		return workload.PL, true
	case "DU":
		return workload.DU, true
	case "CN":
		return workload.CN, true
	case "BB":
		return workload.BB, true
	}
	return 0, false
}

var knownGroups = map[string]workload.SiteGroup{
	string(workload.USEdu):       workload.USEdu,
	string(workload.USPopular):   workload.USPopular,
	string(workload.USMisc):      workload.USMisc,
	string(workload.IntlEdu):     workload.IntlEdu,
	string(workload.IntlPopular): workload.IntlPopular,
	string(workload.IntlMisc):    workload.IntlMisc,
}

// formatOK accepts format strings with exactly one integer verb
// (%d, optionally zero-padded like %05d); %% is allowed, anything else
// is not.
func formatOK(format string) bool {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		j := i + 1
		for j < len(format) && format[j] >= '0' && format[j] <= '9' {
			j++
		}
		switch {
		case j < len(format) && format[j] == 'd':
			n++
			i = j
		case j == i+1 && j < len(format) && format[j] == '%':
			i = j
		default:
			return false
		}
	}
	return n == 1
}

func checkWeights(path string, ws []float64) error {
	sum := 0.0
	for i, w := range ws {
		if w <= 0 {
			return fmt.Errorf("%s[%d].weight: must be > 0, got %v", path, i, w)
		}
		sum += w
	}
	if sum < 1-weightTolerance || sum > 1+weightTolerance {
		return fmt.Errorf("%s: weights sum to %v, want 1", path, sum)
	}
	return nil
}

// reserve adds a block's count to a roster side's running total,
// rejecting the block when the total would pass the address plan's
// capacity. Validate runs it before the roster is expanded, so a huge
// count fails here instead of allocating; comparing n with what is left
// keeps the sum from overflowing.
func reserve(total *int, n, capacity int, path, what string) error {
	if n > capacity-*total {
		return fmt.Errorf("%s: %d %s would exceed the address plan's %d (%d declared before this block)",
			path, n, what, capacity, *total)
	}
	*total += n
	return nil
}

func checkProcess(path string, ps ProcessSpec) error {
	if _, ok := faults.ParseKind(ps.Kind); !ok {
		return fmt.Errorf("%s.kind: unknown fault kind %q", path, ps.Kind)
	}
	if ps.RatePerMonth < 0 {
		return fmt.Errorf("%s.ratePerMonth: must be >= 0, got %v", path, ps.RatePerMonth)
	}
	if ps.MeanDuration <= 0 {
		return fmt.Errorf("%s.meanDuration: must be > 0, got %v", path, ps.MeanDuration.D())
	}
	if ps.MinDuration < 0 || ps.MaxDuration < ps.MinDuration {
		return fmt.Errorf("%s: minDuration %v / maxDuration %v out of order", path, ps.MinDuration.D(), ps.MaxDuration.D())
	}
	if ps.SeverityLow < 0 || ps.SeverityHigh < ps.SeverityLow {
		return fmt.Errorf("%s: severityLow %v / severityHigh %v out of order", path, ps.SeverityLow, ps.SeverityHigh)
	}
	return nil
}

// Validate checks the spec structurally and then expands the roster to
// enforce global invariants (unique names, non-overlapping co-location
// groups, address-plan capacity, fault-profile coverage). A spec that
// validates is guaranteed to compile.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name: must be non-empty")
	}
	wrap := func(err error) error {
		if err == nil {
			return nil
		}
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}

	if len(s.Clients) == 0 {
		return wrap(fmt.Errorf("clients: must list at least one block"))
	}
	const maxClients = workload.MaxClientSites * workload.MaxClientsPerSite
	nClients := 0
	for bi, b := range s.Clients {
		path := fmt.Sprintf("clients[%d]", bi)
		nset := 0
		if b.Group != nil {
			nset++
		}
		if len(b.Members) > 0 {
			nset++
		}
		if b.Fleet != nil {
			nset++
		}
		if nset != 1 {
			return wrap(fmt.Errorf("%s: exactly one of group, members, fleet must be set", path))
		}
		switch {
		case b.Group != nil:
			g := b.Group
			p := path + ".group"
			if g.Site == "" || g.Region == "" {
				return wrap(fmt.Errorf("%s: site and region must be non-empty", p))
			}
			if _, ok := parseCategory(g.Category); !ok {
				return wrap(fmt.Errorf("%s.category: unknown category %q", p, g.Category))
			}
			if g.Count < 1 {
				return wrap(fmt.Errorf("%s.count: must be >= 1, got %d", p, g.Count))
			}
			if err := reserve(&nClients, g.Count, maxClients, p+".count", "clients"); err != nil {
				return wrap(err)
			}
			if !formatOK(g.NameFormat) {
				return wrap(fmt.Errorf("%s.nameFormat: %q must contain exactly one %%d verb", p, g.NameFormat))
			}
			if g.RoundsPerHour <= 0 {
				return wrap(fmt.Errorf("%s.roundsPerHour: must be > 0, got %v", p, g.RoundsPerHour))
			}
		case len(b.Members) > 0:
			if err := reserve(&nClients, len(b.Members), maxClients, path+".members", "clients"); err != nil {
				return wrap(err)
			}
			for mi, m := range b.Members {
				p := fmt.Sprintf("%s.members[%d]", path, mi)
				if m.Name == "" || m.Site == "" || m.Region == "" {
					return wrap(fmt.Errorf("%s: name, site, region must be non-empty", p))
				}
				if _, ok := parseCategory(m.Category); !ok {
					return wrap(fmt.Errorf("%s.category: unknown category %q", p, m.Category))
				}
				if m.RoundsPerHour <= 0 {
					return wrap(fmt.Errorf("%s.roundsPerHour: must be > 0, got %v", p, m.RoundsPerHour))
				}
			}
		case b.Fleet != nil:
			f := b.Fleet
			p := path + ".fleet"
			if f.Count < 1 {
				return wrap(fmt.Errorf("%s.count: must be >= 1, got %d", p, f.Count))
			}
			if err := reserve(&nClients, f.Count, maxClients, p+".count", "clients"); err != nil {
				return wrap(err)
			}
			if !formatOK(f.NameFormat) {
				return wrap(fmt.Errorf("%s.nameFormat: %q must contain exactly one %%d verb", p, f.NameFormat))
			}
			if !formatOK(f.SiteFormat) {
				return wrap(fmt.Errorf("%s.siteFormat: %q must contain exactly one %%d verb", p, f.SiteFormat))
			}
			if len(f.Templates) == 0 {
				return wrap(fmt.Errorf("%s.templates: must be non-empty", p))
			}
			ws := make([]float64, len(f.Templates))
			for ti, t := range f.Templates {
				tp := fmt.Sprintf("%s.templates[%d]", p, ti)
				ws[ti] = t.Weight
				if _, ok := parseCategory(t.Category); !ok {
					return wrap(fmt.Errorf("%s.category: unknown category %q", tp, t.Category))
				}
				if t.RoundsPerHour <= 0 {
					return wrap(fmt.Errorf("%s.roundsPerHour: must be > 0, got %v", tp, t.RoundsPerHour))
				}
			}
			if err := checkWeights(p+".templates", ws); err != nil {
				return wrap(err)
			}
			if len(f.GroupSizes) > 0 {
				gs := make([]float64, len(f.GroupSizes))
				for gi, g := range f.GroupSizes {
					if g.Value < 1 || g.Value > workload.MaxClientsPerSite {
						return wrap(fmt.Errorf("%s.groupSizes[%d].value: must be in [1, %d], got %d",
							p, gi, workload.MaxClientsPerSite, g.Value))
					}
					gs[gi] = g.Weight
				}
				if err := checkWeights(p+".groupSizes", gs); err != nil {
					return wrap(err)
				}
			}
			if len(f.Regions) == 0 {
				return wrap(fmt.Errorf("%s.regions: must be non-empty", p))
			}
			rs := make([]float64, len(f.Regions))
			for ri, r := range f.Regions {
				if r.Value == "" {
					return wrap(fmt.Errorf("%s.regions[%d].value: must be non-empty", p, ri))
				}
				rs[ri] = r.Weight
			}
			if err := checkWeights(p+".regions", rs); err != nil {
				return wrap(err)
			}
			if st := f.Startup; st != nil {
				sp := p + ".startup"
				switch st.Pattern {
				case StartupInstant, StartupLinear, StartupExponential, StartupWave:
				default:
					return wrap(fmt.Errorf("%s.pattern: unknown pattern %q", sp, st.Pattern))
				}
				if st.Pattern != StartupInstant && st.Window <= 0 {
					return wrap(fmt.Errorf("%s.window: must be > 0 for pattern %q", sp, st.Pattern))
				}
				if st.Waves < 0 {
					return wrap(fmt.Errorf("%s.waves: must be >= 0, got %d", sp, st.Waves))
				}
			}
		}
	}

	if len(s.Websites) == 0 {
		return wrap(fmt.Errorf("websites: must list at least one block"))
	}
	nWebsites := 0
	for bi, b := range s.Websites {
		path := fmt.Sprintf("websites[%d]", bi)
		if (len(b.List) > 0) == (b.Fleet != nil) {
			return wrap(fmt.Errorf("%s: exactly one of list, fleet must be set", path))
		}
		if err := reserve(&nWebsites, len(b.List), workload.MaxWebsites, path+".list", "websites"); err != nil {
			return wrap(err)
		}
		if b.Fleet != nil {
			f := b.Fleet
			p := path + ".fleet"
			if f.Count < 1 {
				return wrap(fmt.Errorf("%s.count: must be >= 1, got %d", p, f.Count))
			}
			if err := reserve(&nWebsites, f.Count, workload.MaxWebsites, p+".count", "websites"); err != nil {
				return wrap(err)
			}
			if !formatOK(f.HostFormat) {
				return wrap(fmt.Errorf("%s.hostFormat: %q must contain exactly one %%d verb", p, f.HostFormat))
			}
			if len(f.Templates) == 0 {
				return wrap(fmt.Errorf("%s.templates: must be non-empty", p))
			}
			ws := make([]float64, len(f.Templates))
			for ti, t := range f.Templates {
				tp := fmt.Sprintf("%s.templates[%d]", p, ti)
				ws[ti] = t.Weight
				if _, ok := knownGroups[t.Group]; !ok {
					return wrap(fmt.Errorf("%s.group: unknown website group %q", tp, t.Group))
				}
				if t.Replicas < 0 || t.Replicas > workload.MaxReplicas {
					return wrap(fmt.Errorf("%s.replicas: must be in [0, %d], got %d", tp, workload.MaxReplicas, t.Replicas))
				}
				if t.IndexSize < 0 {
					return wrap(fmt.Errorf("%s.indexSize: must be >= 0, got %d", tp, t.IndexSize))
				}
			}
			if err := checkWeights(p+".templates", ws); err != nil {
				return wrap(err)
			}
			if len(f.Regions) == 0 {
				return wrap(fmt.Errorf("%s.regions: must be non-empty", p))
			}
			rs := make([]float64, len(f.Regions))
			for ri, r := range f.Regions {
				if r.Value == "" {
					return wrap(fmt.Errorf("%s.regions[%d].value: must be non-empty", p, ri))
				}
				rs[ri] = r.Weight
			}
			if err := checkWeights(p+".regions", rs); err != nil {
				return wrap(err)
			}
		}
		for wi, w := range b.List {
			p := fmt.Sprintf("%s.list[%d]", path, wi)
			if w.Host == "" || w.Region == "" {
				return wrap(fmt.Errorf("%s: host and region must be non-empty", p))
			}
			if _, ok := knownGroups[w.Group]; !ok {
				return wrap(fmt.Errorf("%s.group: unknown website group %q", p, w.Group))
			}
			if w.Replicas < 0 || w.Replicas > workload.MaxReplicas {
				return wrap(fmt.Errorf("%s.replicas: must be in [0, %d], got %d", p, workload.MaxReplicas, w.Replicas))
			}
			if w.IndexSize < 0 {
				return wrap(fmt.Errorf("%s.indexSize: must be >= 0, got %d", p, w.IndexSize))
			}
		}
	}

	// Expand the roster to enforce the global invariants.
	cs, ws, err := s.expandRoster()
	if err != nil {
		return wrap(err)
	}
	if err := checkRoster(cs, ws, s); err != nil {
		return wrap(err)
	}

	return wrap(s.validateFaults(cs))
}

// checkRoster enforces uniqueness, co-location-group integrity, and the
// address-plan capacity limits on the expanded roster.
func checkRoster(cs []workload.Client, ws []workload.Website, s *Spec) error {
	names := make(map[string]bool, len(cs))
	siteBlock := make(map[string]int) // site -> client block index that owns it
	sitePop := make(map[string]int)
	blockOf := s.clientBlockIndex()
	for i, c := range cs {
		if names[c.Name] {
			return fmt.Errorf("clients: duplicate client name %q", c.Name)
		}
		names[c.Name] = true
		bi := blockOf[i]
		if owner, ok := siteBlock[c.Site]; ok && owner != bi {
			return fmt.Errorf("clients[%d]: co-location group %q overlaps clients[%d] (a site may be declared by only one block)",
				bi, c.Site, owner)
		}
		siteBlock[c.Site] = bi
		sitePop[c.Site]++
		if sitePop[c.Site] > workload.MaxClientsPerSite {
			return fmt.Errorf("clients[%d]: site %q exceeds %d clients (address-plan capacity)",
				bi, c.Site, workload.MaxClientsPerSite)
		}
	}
	if len(sitePop) > workload.MaxClientSites {
		return fmt.Errorf("clients: %d sites exceed the address plan's %d /24s", len(sitePop), workload.MaxClientSites)
	}
	hosts := make(map[string]bool, len(ws))
	for j, w := range ws {
		if hosts[w.Host] {
			return fmt.Errorf("websites: duplicate host %q", w.Host)
		}
		hosts[w.Host] = true
		if w.SpreadReplicas && w.Replicas > 1 && j >= workload.MaxSpreadWebsites {
			return fmt.Errorf("websites: spread-replica site %q at index %d exceeds the second-/24 capacity (%d)",
				w.Host, j, workload.MaxSpreadWebsites)
		}
	}
	return nil
}

// validateFaults checks the fault calibration, including per-category
// coverage for every category present in the roster.
func (s *Spec) validateFaults(cs []workload.Client) error {
	f := &s.Faults
	cats := make(map[string]bool)
	for _, c := range cs {
		cats[c.Category.String()] = true
	}
	perCat := []struct {
		name string
		m    map[string]ProcessSpec
	}{
		{"machineOff", f.MachineOff}, {"siteConn", f.SiteConn},
		{"clientConn", f.ClientConn}, {"ldnsOutage", f.LDNSOutage},
		{"ldnsFlaky", f.LDNSFlaky}, {"wanOutage", f.WANOutage},
	}
	for _, pc := range perCat {
		for cat := range cats {
			if _, ok := pc.m[cat]; !ok {
				return fmt.Errorf("faults.%s: missing profile for category %q (present in roster)", pc.name, cat)
			}
		}
		for cat, ps := range pc.m {
			if _, ok := parseCategory(cat); !ok {
				return fmt.Errorf("faults.%s: unknown category %q", pc.name, cat)
			}
			if err := checkProcess(fmt.Sprintf("faults.%s[%s]", pc.name, cat), ps); err != nil {
				return err
			}
		}
	}
	if f.SiteFactorMean < 0.25 {
		return fmt.Errorf("faults.siteFactorMean: must be >= 0.25, got %v", f.SiteFactorMean)
	}
	for _, sp := range []struct {
		name string
		ps   ProcessSpec
	}{
		{"siteOutage", f.SiteOutage}, {"replicaOutage", f.ReplicaOutage},
		{"siteOverload", f.SiteOverload}, {"authDNSOutage", f.AuthDNSOutage},
		{"httpError", f.HTTPError},
	} {
		if err := checkProcess("faults."+sp.name, sp.ps); err != nil {
			return err
		}
	}
	if f.BGPRate < 0 {
		return fmt.Errorf("faults.bgpRate: must be >= 0, got %v", f.BGPRate)
	}
	if f.BGPGlobalFraction < 0 || f.BGPGlobalFraction > 1 {
		return fmt.Errorf("faults.bgpGlobalFraction: must be in [0, 1], got %v", f.BGPGlobalFraction)
	}
	for _, tp := range []struct {
		name string
		v    float64
	}{
		{"transientConnFail", f.TransientConnFail},
		{"transientDNSFail", f.TransientDNSFail},
		{"transientHTTPErr", f.TransientHTTPErr},
	} {
		if tp.v < 0 || tp.v >= 1 {
			return fmt.Errorf("faults.%s: must be in [0, 1), got %v", tp.name, tp.v)
		}
	}
	for i, sp := range f.Specials {
		p := fmt.Sprintf("faults.specials[%d]", i)
		if sp.Host == "" {
			return fmt.Errorf("%s.host: must be non-empty", p)
		}
		if sp.ChronicCover < 0 || sp.ChronicCover >= 1 {
			return fmt.Errorf("%s.chronicCover: must be in [0, 1), got %v", p, sp.ChronicCover)
		}
		if sp.ChronicCover > 0 {
			kind, ok := faults.ParseKind(sp.ChronicKind)
			if !ok {
				return fmt.Errorf("%s.chronicKind: unknown fault kind %q", p, sp.ChronicKind)
			}
			if _, ok := parseChronicMode(kind, sp.ChronicMode); !ok {
				return fmt.Errorf("%s.chronicMode: %q is not valid for kind %q", p, sp.ChronicMode, sp.ChronicKind)
			}
			if sp.ChronicSeverity[0] <= 0 || sp.ChronicSeverity[1] < sp.ChronicSeverity[0] {
				return fmt.Errorf("%s.chronicSeverity: %v out of order", p, sp.ChronicSeverity)
			}
		}
		if sp.ExtraOutageRate < 0 {
			return fmt.Errorf("%s.extraOutageRate: must be >= 0, got %v", p, sp.ExtraOutageRate)
		}
		if sp.ReplicaFlakyFraction < 0 || sp.ReplicaFlakyFraction >= 1 {
			return fmt.Errorf("%s.replicaFlakyFraction: must be in [0, 1), got %v", p, sp.ReplicaFlakyFraction)
		}
	}
	for i, list := range [][]ChronicSpec{f.ChronicSites, f.ChronicClients} {
		field := [2]string{"chronicSites", "chronicClients"}[i]
		for j, ce := range list {
			p := fmt.Sprintf("faults.%s[%d]", field, j)
			if ce.Name == "" {
				return fmt.Errorf("%s.name: must be non-empty", p)
			}
			if ce.Cover <= 0 || ce.Cover >= 1 {
				return fmt.Errorf("%s.cover: must be in (0, 1), got %v", p, ce.Cover)
			}
			if ce.Severity[0] <= 0 || ce.Severity[1] < ce.Severity[0] {
				return fmt.Errorf("%s.severity: %v out of order", p, ce.Severity)
			}
		}
	}
	for i, ev := range f.PinnedBGP {
		p := fmt.Sprintf("faults.pinnedBGP[%d]", i)
		if ev.ClientSubstr == "" {
			return fmt.Errorf("%s.clientSubstr: must be non-empty", p)
		}
		if ev.Duration <= 0 {
			return fmt.Errorf("%s.duration: must be > 0, got %v", p, ev.Duration.D())
		}
		if ev.Severity <= 0 {
			return fmt.Errorf("%s.severity: must be > 0, got %v", p, ev.Severity)
		}
		if _, ok := parseBGPMode(ev.Mode); !ok {
			return fmt.Errorf("%s.mode: unknown mode %q", p, ev.Mode)
		}
	}
	for i, pp := range f.Permanent {
		p := fmt.Sprintf("faults.permanent[%d]", i)
		if pp.Site == "" || pp.Host == "" {
			return fmt.Errorf("%s: site and host must be non-empty", p)
		}
		if _, ok := parseBlockMode(pp.Mode); !ok {
			return fmt.Errorf("%s.mode: unknown mode %q (want \"no-conn\" or \"partial\")", p, pp.Mode)
		}
	}
	return nil
}

func parseChronicMode(kind faults.Kind, mode string) (uint8, bool) {
	switch kind {
	case faults.ServerOverload:
		switch mode {
		case "hung":
			return workload.OverloadHung, true
		case "stall":
			return workload.OverloadStall, true
		case "abort":
			return workload.OverloadAbort, true
		}
	case faults.AuthDNSMisconfig:
		switch mode {
		case "servfail":
			return workload.MisconfigServFail, true
		case "nxdomain":
			return workload.MisconfigNXDomain, true
		}
	default:
		if mode == "" {
			return 0, true
		}
	}
	return 0, false
}

func parseBGPMode(mode string) (uint8, bool) {
	switch mode {
	case "":
		return 0, true
	case "high-impact":
		return workload.BGPHighImpact, true
	}
	return 0, false
}

func parseBlockMode(mode string) (uint8, bool) {
	switch mode {
	case "no-conn":
		return workload.BlockNoConn, true
	case "partial":
		return workload.BlockPartial, true
	}
	return 0, false
}
