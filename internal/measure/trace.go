package measure

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"webfail/internal/faults"
	"webfail/internal/httpsim"
	"webfail/internal/obs"
	"webfail/internal/simnet"
)

// TraceClass is the dense failure-class taxonomy tracing and the
// per-class latency histograms share: the record's failure stage
// refined by its stage-specific sub-classification, mirroring the
// paper's Section 4 breakdown tables (Table 4 for DNS, Figure 3 for
// TCP) plus the HTTP status split.
type TraceClass uint8

// Failure classes, in exposition order.
const (
	ClassOK TraceClass = iota
	ClassDNSLDNSTimeout
	ClassDNSNonLDNSTimeout
	ClassDNSError
	ClassTCPNoConnection
	ClassTCPNoResponse
	ClassTCPPartial
	ClassHTTP404
	ClassHTTP502
	ClassHTTP503
	ClassHTTPOther
	numTraceClasses
)

const numTraceClassesInt = int(numTraceClasses)

var traceClassNames = [numTraceClassesInt]string{
	"ok",
	"dns:ldns-timeout",
	"dns:non-ldns-timeout",
	"dns:error-response",
	"tcp:no-connection",
	"tcp:no-response",
	"tcp:partial-response",
	"http:404",
	"http:502",
	"http:503",
	"http:other",
}

func (c TraceClass) String() string {
	if int(c) < numTraceClassesInt {
		return traceClassNames[c]
	}
	return fmt.Sprintf("TraceClass(%d)", uint8(c))
}

// ParseTraceClass resolves a class name from the CLI.
func ParseTraceClass(s string) (TraceClass, error) {
	for i, n := range traceClassNames {
		if n == s {
			return TraceClass(i), nil
		}
	}
	return 0, fmt.Errorf("unknown failure class %q (one of %s)", s, strings.Join(traceClassNames[:], ", "))
}

// ClassOf classifies a record. Both run modes produce the same class
// for the same record bytes, so class-keyed output is mode-comparable.
func ClassOf(r *Record) TraceClass {
	switch r.Stage {
	case httpsim.StageNone:
		return ClassOK
	case httpsim.StageDNS:
		switch r.DNS {
		case DNSLDNSTimeout:
			return ClassDNSLDNSTimeout
		case DNSNonLDNSTimeout:
			return ClassDNSNonLDNSTimeout
		default:
			return ClassDNSError
		}
	case httpsim.StageTCP:
		switch r.FailKind {
		case httpsim.NoResponse:
			return ClassTCPNoResponse
		case httpsim.PartialResponse:
			return ClassTCPPartial
		default:
			return ClassTCPNoConnection
		}
	default: // StageHTTP
		switch r.StatusCode {
		case 404:
			return ClassHTTP404
		case 502:
			return ClassHTTP502
		case 503:
			return ClassHTTP503
		default:
			return ClassHTTPOther
		}
	}
}

// fastTxnLatency is the fast-mode end-to-end virtual latency: the DNS
// phase plus the download phase. A DNS-stage failure's Elapsed already
// equals its DNSTime, so it contributes once.
func fastTxnLatency(r *Record) time.Duration {
	if r.Stage == httpsim.StageDNS {
		return r.Elapsed
	}
	return r.DNSTime + r.Elapsed
}

// latBuckets histogram bounds, in virtual milliseconds. The knees sit
// on the simulation's characteristic times: the 11 s stub-resolver
// retry schedule, the 21 s SYN failure, and the 60 s stall timeout.
const latBuckets = 10

var latBoundsMs = [latBuckets]float64{50, 250, 1000, 5000, 11000, 15000, 21000, 30000, 60000, 120000}

// latMetricNames are the per-class histogram names, precomputed so the
// fold path builds no strings.
var latMetricNames = func() (out [numTraceClassesInt]string) {
	for c := range out {
		out[c] = `measure_txn_latency_ms{class="` + traceClassNames[c] + `"}`
	}
	return
}()

// latencyScratch is one shard's per-failure-class latency census:
// plain integer bucket counts observed per transaction and folded into
// the registry once at shard completion. Millisecond sums are integral,
// so the folded histogram sum is exact and fold-order-independent —
// the deterministic-section byte-identity contract holds across
// -parallel values.
type latencyScratch struct {
	counts [numTraceClassesInt][latBuckets + 1]int64
	sums   [numTraceClassesInt]int64 // milliseconds
}

func (l *latencyScratch) observe(class TraceClass, d time.Duration) {
	ms := int64(d / time.Millisecond)
	b := 0
	for b < latBuckets && float64(ms) > latBoundsMs[b] {
		b++
	}
	l.counts[class][b]++
	l.sums[class] += ms
}

func (l *latencyScratch) fold(reg *obs.Registry) {
	for c := 0; c < numTraceClassesInt; c++ {
		var total int64
		for _, n := range l.counts[c] {
			total += n
		}
		if total == 0 {
			continue
		}
		h := reg.Histogram(latMetricNames[c], latBoundsMs[:])
		h.AddCounts(l.counts[c][:], float64(l.sums[c]))
	}
}

// traceCause names the ground-truth fault behind a span: an interned
// entity and episode kind, or the transient flag for background
// randomness with no scheduled episode. Deliberately string-free — the
// hot path copies these; the blame text builds only for kept exemplars.
type traceCause struct {
	ent       faults.EntityID
	kind      faults.Kind
	transient bool
}

var noCause = traceCause{ent: faults.NoEntity}

func (c traceCause) describe(names []faults.Entity) string {
	if c.ent != faults.NoEntity {
		return "blame=" + string(names[c.ent]) + " " + c.kind.String()
	}
	if c.transient {
		return "blame=transient"
	}
	return ""
}

// attemptRec is the per-connection-attempt scratch the hot path
// records while tracing is on — the one phase whose structure is
// not reconstructible from the finished Record (each address in the
// retry sequence can fail differently). Everything else (root, DNS,
// proxy, HTTP spans) is rebuilt at materialization time from the
// Record plus the per-phase cause fields, so most transactions pay for
// a single small append here and nothing more.
type attemptRec struct {
	addr     netip.Addr
	from, to time.Duration // offsets within the download phase
	outcome  string        // constant strings only ("connected" or a ConnFailKind)
	cause    traceCause
}

// traceShard is the fast evaluator's tracing state: the shard's sink
// plus the dense bookkeeping that lets the per-transaction path decide
// "can this still make the sample?" with array reads. Fast mode delivers
// transactions in canonical order, so counts[class] < k is exact;
// packet mode's event loop completes transactions out of order and
// goes through the sink's Admit instead (see packet_trace.go).
type traceShard struct {
	sink   *obs.Tracer
	k      int
	counts [numTraceClassesInt]int
	// seq assigns each performed transaction its per-client ordinal —
	// the canonical Minor key — indexed by shard-local client index.
	seq      []int64
	attempts []attemptRec // per-transaction scratch, reused
}

func newTraceShard(sink *obs.Tracer, nClients int) *traceShard {
	return &traceShard{
		sink:     sink,
		k:        sink.K(),
		seq:      make([]int64, nClients),
		attempts: make([]attemptRec, 0, 16),
	}
}

// attempt records one TCP connection attempt. from/to bound the attempt
// within the download phase (whose base — transaction start plus DNS
// time — is recomputed at materialization).
func (tr *traceShard) attempt(addr netip.Addr, from, to time.Duration, outcome string, cause traceCause) {
	tr.attempts = append(tr.attempts, attemptRec{
		addr: addr, from: from, to: to, outcome: outcome, cause: cause,
	})
}

// traceFinish assigns the finished transaction its canonical ordinal
// and keeps it if its class still has room in this shard's sample.
// Called only when tracing is on.
func (ev *evaluator) traceFinish(rec *Record, class TraceClass) {
	tr := ev.tr
	ci := int(rec.ClientIdx) - ev.lo
	seq := tr.seq[ci]
	tr.seq[ci]++
	if tr.counts[class] >= tr.k {
		return
	}
	tr.sink.Add(ev.materializeExemplar(rec, class, seq))
	tr.counts[class]++
}

func statusText(code int16) string {
	switch code {
	case 200:
		return "200"
	case 404:
		return "404"
	case 502:
		return "502"
	case 503:
		return "503"
	default:
		return ""
	}
}

// materializeExemplar builds a kept exemplar's span tree — the work
// the hot path deferred. Only the per-attempt structure was recorded
// inline; the root, DNS/proxy, and HTTP spans reconstruct here from
// the finished Record plus the per-phase cause fields, together with
// the strings tracing avoided: span names, blamed entities from the
// fault ground truth, and the episode context active when the
// transaction ran.
func (ev *evaluator) materializeExemplar(rec *Record, class TraceClass, seq int64) obs.TraceExemplar {
	ci, si := int(rec.ClientIdx), int(rec.SiteIdx)
	tr := ev.tr
	ex := obs.TraceExemplar{
		Class: class.String(),
		Label: ev.topo.Clients[ci].Name + " x " + ev.topo.Websites[si].Host,
		Major: int64(ci),
		Minor: seq,
		Spans: make([]obs.TraceSpan, 0, 4+len(tr.attempts)),
	}
	names := ev.tl.Entities()
	span := func(name string, depth int, start simnet.Time, dur time.Duration, outcome string, cause traceCause, detail string) {
		out := obs.TraceSpan{
			Name: name, Depth: depth,
			Start: int64(start), Dur: int64(dur),
			Outcome: outcome, Detail: detail,
		}
		if d := cause.describe(names); d != "" {
			if out.Detail != "" {
				out.Detail += "; " + d
			} else {
				out.Detail = d
			}
		}
		ex.Spans = append(ex.Spans, out)
	}
	at := rec.At
	span("txn", 0, at, fastTxnLatency(rec), class.String(), noCause, summarizeEpisodes(ev.tl, ev.ids.Touched(ci, si), at))
	gatewayFail := rec.Proxied && rec.StatusCode == 502
	if !rec.Proxied {
		span("dns", 1, at, rec.DNSTime, rec.DNS.String(), ev.trDNSCause, "")
	} else if gatewayFail {
		// The proxy's own resolution failed: no attempts ran; the whole
		// elapsed time is the proxy timing out and answering 502.
		span("proxy-dns", 1, at, rec.Elapsed, "gateway-error", ev.trDNSCause, "")
		span("http", 1, at.Add(rec.Elapsed), 0, "502", ev.trDNSCause, "")
	} else {
		span("proxy-dns", 1, at, 0, "masked", noCause, "")
	}
	base := at.Add(rec.DNSTime) // proxied DNSTime is 0: proxy connect starts at once
	for i := range tr.attempts {
		a := &tr.attempts[i]
		span("tcp "+a.addr.String(), 1, base.Add(a.from), a.to-a.from, a.outcome, a.cause, "")
	}
	if n := len(tr.attempts); n > 0 && tr.attempts[n-1].outcome == "connected" {
		outcome := statusText(rec.StatusCode)
		if outcome == "" {
			outcome = strconv.Itoa(int(rec.StatusCode))
		}
		span("http", 2, base.Add(tr.attempts[n-1].to), 0, outcome, ev.trHTTPCause, "")
	}
	return ex
}

// summarizeEpisodes renders the episodes active at a point in time on
// the given entities, in entity-list order: the ground-truth context of
// an exemplar, the forensic evidence the paper reconstructs from layered
// observations, here read directly from the scenario. Both engines pass
// EntityTable.Touched, so their context is comparable. Only kept
// exemplars pay for it, and the episode counter is untouched, so the
// deterministic work census stays shard-count-invariant.
func summarizeEpisodes(tl *faults.Timeline, ids []faults.EntityID, at simnet.Time) string {
	var b strings.Builder
	var buf []faults.Episode
	for _, id := range ids {
		buf = tl.ActiveAnyIntoID(id, at, buf[:0])
		for _, ep := range buf {
			if b.Len() > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s %s sev=%.2f", ep.Entity, ep.Kind, ep.Severity)
		}
	}
	if b.Len() == 0 {
		return "no active episodes"
	}
	return "active: " + b.String()
}
