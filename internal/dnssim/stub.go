package dnssim

import (
	"net/netip"
	"time"

	"webfail/internal/dnswire"
	"webfail/internal/simnet"
)

// ResultKind classifies the outcome of a stub lookup.
type ResultKind uint8

// Stub lookup outcomes.
const (
	// ResultOK means addresses were returned.
	ResultOK ResultKind = iota
	// ResultTimeout means no response arrived within the retry schedule.
	ResultTimeout
	// ResultError means the resolver returned a non-zero RCODE
	// (SERVFAIL, NXDOMAIN, ...).
	ResultError
)

func (k ResultKind) String() string {
	switch k {
	case ResultOK:
		return "ok"
	case ResultTimeout:
		return "timeout"
	case ResultError:
		return "error"
	default:
		return "unknown"
	}
}

// Result is the outcome of a stub lookup.
type Result struct {
	Kind  ResultKind
	Addrs []netip.Addr
	RCode dnswire.RCode
	// RTT is the elapsed simulated time of the whole lookup, including
	// retries — the paper's "DNS lookup time".
	RTT time.Duration
}

// retrySchedule mirrors a typical 2005-era stub resolver (res_send with
// three tries): per-attempt timeouts summing to ~11 s.
var retrySchedule = [...]time.Duration{3 * time.Second, 3 * time.Second, 5 * time.Second}

// StubResolver is the client-side resolver talking to one LDNS.
type StubResolver struct {
	Host *simnet.Host
	LDNS netip.Addr

	exch *exchanger
}

// NewStubResolver creates a stub resolver on host pointing at the LDNS.
func NewStubResolver(host *simnet.Host, ldns netip.Addr) *StubResolver {
	return &StubResolver{Host: host, LDNS: ldns, exch: newExchanger(host)}
}

// LookupA resolves name via the LDNS, retrying per the schedule, and calls
// done exactly once.
func (s *StubResolver) LookupA(name string, done func(Result)) {
	start := s.Host.Now()
	s.attempt(name, 0, start, done)
}

func (s *StubResolver) attempt(name string, try int, start simnet.Time, done func(Result)) {
	if try >= len(retrySchedule) {
		done(Result{Kind: ResultTimeout, RTT: s.Host.Now().Sub(start)})
		return
	}
	s.exch.query(s.LDNS, name, true, retrySchedule[try], func(resp *dnswire.Message) {
		if resp == nil {
			s.attempt(name, try+1, start, done)
			return
		}
		rtt := s.Host.Now().Sub(start)
		if resp.Header.RCode != dnswire.RCodeNoError {
			done(Result{Kind: ResultError, RCode: resp.Header.RCode, RTT: rtt})
			return
		}
		addrs := make([]netip.Addr, 0, len(resp.Answers))
		for _, rr := range resp.Answers {
			if rr.Type == dnswire.TypeA {
				addrs = append(addrs, rr.A)
			}
		}
		if len(addrs) == 0 {
			// NOERROR with no A records: treat as an error
			// response, as wget would.
			done(Result{Kind: ResultError, RCode: dnswire.RCodeServFail, RTT: rtt})
			return
		}
		done(Result{Kind: ResultOK, Addrs: addrs, RTT: rtt})
	})
}

// FailureClass is the paper's DNS failure sub-classification (Section 2.1,
// category 1).
type FailureClass uint8

// DNS failure sub-classes.
const (
	// ClassSuccess: the lookup succeeded.
	ClassSuccess FailureClass = iota
	// ClassLDNSTimeout: the LDNS itself is unreachable (down, or
	// client-side connectivity loss).
	ClassLDNSTimeout
	// ClassNonLDNSTimeout: the LDNS responds, but the lookup times out
	// because an authoritative server elsewhere is unreachable.
	ClassNonLDNSTimeout
	// ClassErrorResponse: a definitive error (NXDOMAIN, SERVFAIL) was
	// returned.
	ClassErrorResponse
)

func (c FailureClass) String() string {
	switch c {
	case ClassSuccess:
		return "success"
	case ClassLDNSTimeout:
		return "ldns-timeout"
	case ClassNonLDNSTimeout:
		return "non-ldns-timeout"
	case ClassErrorResponse:
		return "error-response"
	default:
		return "unknown"
	}
}

// DigStep records one hop of an iterative trace.
type DigStep struct {
	Server    netip.Addr
	Responded bool
	RCode     dnswire.RCode
	Referral  bool
	Answered  bool
}

// DigReport is the outcome of an iterative (dig +trace style) resolution,
// used to sub-classify DNS failures the way the paper's post-processing
// does (Section 3.4 step 3, Section 4.2).
type DigReport struct {
	Name string
	// LDNSResponsive reports whether the LDNS answered a direct probe.
	LDNSResponsive bool
	Steps          []DigStep
	Addrs          []netip.Addr
	// Completed is true when the trace reached a terminal answer or
	// error rather than timing out mid-hierarchy.
	Completed bool
	RCode     dnswire.RCode
}

// Classify reduces the report to the paper's failure classes. An
// unresponsive LDNS dominates: even when the iterative walk from the roots
// succeeds, the client's own lookups were broken by the LDNS being
// unreachable, which is precisely the paper's "LDNS timeout" class.
func (r *DigReport) Classify() FailureClass {
	if !r.LDNSResponsive {
		return ClassLDNSTimeout
	}
	if r.Completed && r.RCode != dnswire.RCodeNoError {
		return ClassErrorResponse
	}
	if r.Completed && len(r.Addrs) > 0 {
		return ClassSuccess
	}
	// A timed-out walk in which some server responded (a referral was
	// followed) but a deeper one stayed silent pins the blame on that
	// remote server: the genuine "non-LDNS timeout". When *no* remote
	// server responded at all, the only common element is the client's
	// own access path, which the paper files with the client-side/LDNS
	// class (its dig post-processing ran from the same vantage as wget).
	for _, st := range r.Steps {
		if st.Responded {
			return ClassNonLDNSTimeout
		}
	}
	return ClassLDNSTimeout
}

// digTimeout is Dig's per-query timeout.
const digTimeout = 3 * time.Second

// Dig performs iterative resolution for diagnosis: first a direct LDNS
// probe, then a walk down from the root servers — the walk the LDNS
// recurses with, recording one DigStep per query.
type Dig struct {
	Host      *simnet.Host
	LDNS      netip.Addr
	RootHints []netip.Addr

	exch *exchanger
}

// NewDig creates an iterative tracer.
func NewDig(host *simnet.Host, ldns netip.Addr, rootHints []netip.Addr) *Dig {
	return &Dig{Host: host, LDNS: ldns, RootHints: rootHints, exch: newExchanger(host)}
}

// Trace resolves name iteratively and calls done exactly once with the
// report.
func (d *Dig) Trace(name string, done func(*DigReport)) {
	name = dnswire.Canonical(name)
	rep := &DigReport{Name: name}
	w := &walk{roots: d.RootHints, deadline: noDeadline, steps: &rep.Steps}
	w.init(d.exch, digTimeout, func() {
		rep.Addrs, rep.RCode, rep.Completed = w.addrs, w.rcode, w.ok
		done(rep)
	})
	// Step 1: probe the LDNS with a root-server A query it can answer
	// from hints without recursing. Any response proves responsiveness;
	// this avoids conflating a slow recursion for the (possibly broken)
	// target name with LDNS unreachability.
	d.exch.query(d.LDNS, ProbeName, true, digTimeout, func(resp *dnswire.Message) {
		rep.LDNSResponsive = resp != nil
		// Step 2: walk the hierarchy from the roots.
		w.start(name)
	})
}
