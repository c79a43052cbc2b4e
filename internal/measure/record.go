// Package measure is the experiment driver: it executes the download
// schedule against the fault scenario and emits one performance record per
// transaction (Section 3.5), in either of two modes that share the record
// schema:
//
//   - fast mode (Run): per-transaction outcome evaluation directly against
//     the fault timelines, used for the month-scale reproduction, whose
//     22.2 M transactions take 5.2 s of wall time at two shards on a
//     2-vCPU Xeon VM, 233 ns per transaction (EXPERIMENTS.md, "Fast mode
//     without per-query copies");
//   - packet mode (RunPacket): full protocol simulation — DNS messages
//     over UDP, TCP handshakes and transfers, HTTP over the byte stream —
//     used at smaller scale to validate that the protocol stack produces
//     the same failure taxonomy the fast mode abstracts.
package measure

import (
	"fmt"
	"net/netip"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/obs"
	"webfail/internal/simnet"
	"webfail/internal/workload"
)

// DNSOutcome is the resolved DNS result of a transaction, carrying the
// paper's sub-classification (Section 2.1 category 1).
type DNSOutcome uint8

// DNS outcomes.
const (
	DNSOK DNSOutcome = iota
	DNSLDNSTimeout
	DNSNonLDNSTimeout
	DNSErrorResponse
	// DNSMasked marks proxied transactions: the proxy resolves, so the
	// client observes nothing about DNS (Section 3.4).
	DNSMasked
)

func (o DNSOutcome) String() string {
	switch o {
	case DNSOK:
		return "ok"
	case DNSLDNSTimeout:
		return "ldns-timeout"
	case DNSNonLDNSTimeout:
		return "non-ldns-timeout"
	case DNSErrorResponse:
		return "error-response"
	case DNSMasked:
		return "masked"
	default:
		return fmt.Sprintf("DNSOutcome(%d)", uint8(o))
	}
}

// Record is one transaction's performance record (Section 3.5): "the
// client name, URL, server IP address, and time", success/failure of the
// DNS lookup and the download, timings, and the post-processed failure
// cause.
type Record struct {
	ClientIdx int32
	SiteIdx   int32
	At        simnet.Time

	Category workload.Category
	Proxied  bool

	// DNS phase.
	DNS     DNSOutcome
	DNSTime time.Duration

	// Download phase.
	Stage      httpsim.Stage
	FailKind   httpsim.ConnFailKind
	Conns      int16 // TCP connections attempted (retries + failover + redirects)
	StatusCode int16
	Bytes      int32
	Redirects  int8
	ReplicaIP  netip.Addr // last server address contacted (invalid if none)
	Elapsed    time.Duration

	// Trace-derived loss signals (Section 3.5 step b): data packets and
	// retransmissions observed on this transaction's connections.
	DataPkts    int16
	Retransmits int16
}

// Failed reports whether the transaction failed (any stage).
func (r *Record) Failed() bool { return r.Stage != httpsim.StageNone }

// FailedConns reports how many of the record's connection attempts failed:
// all of them on a TCP-stage failure, all but the last otherwise.
func (r *Record) FailedConns() int {
	if r.Conns == 0 {
		return 0
	}
	if r.Stage == httpsim.StageTCP {
		return int(r.Conns)
	}
	return int(r.Conns) - 1 - int(r.Redirects)
}

// Config drives a run.
type Config struct {
	Topo     *workload.Topology
	Scenario *workload.Scenario
	// Seed randomizes per-transaction draws (independent of the
	// scenario seed so the same fault schedule can be re-sampled).
	Seed int64
	// Start and End bound the experiment window.
	Start, End simnet.Time

	// Metrics, when non-nil, receives the run's counters (transactions
	// evaluated, skips, failures, fault episodes scanned; packet mode
	// adds scheduler totals). The hot path keeps plain per-shard
	// counters in the evaluator's scratch and folds them in once at
	// shard completion, so instrumentation costs no allocations and no
	// atomics per transaction. Counting is seed-deterministic: the
	// folded totals are identical for any shard count.
	Metrics *obs.Registry
	// Progress, when non-nil, receives live per-shard completion
	// counts (flushed every few thousand transactions) for the
	// periodic progress reporter. Purely observational: it never feeds
	// back into evaluation.
	Progress *obs.Progress
	// Trace, when non-nil, samples per-transaction causal span trees
	// into the tracer: the first K exemplars per failure class in
	// canonical (client index, per-client transaction ordinal) order,
	// annotated with the ground-truth episodes behind each outcome.
	// Sampling is shard-invariant — per-shard tracers merge like
	// Analysis.Merge — so the exported trace is byte-identical for any
	// -parallel value. Tracing draws no randomness and never feeds
	// back into evaluation; nil disables it at the cost of one pointer
	// check per transaction.
	Trace *obs.Tracer
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Topo == nil || c.Scenario == nil {
		return fmt.Errorf("measure: config missing topology or scenario")
	}
	if c.End <= c.Start {
		return fmt.Errorf("measure: empty window [%v, %v)", c.Start, c.End)
	}
	return nil
}
