package measure

import (
	"fmt"
	"math"
	"strings"

	"webfail/internal/httpsim"
)

// Calibration compares fast mode against packet mode over the same
// configuration. Fast mode abstracts the protocol stack into direct
// outcome draws; packet mode actually runs DNS over UDP, TCP, and HTTP.
// The two use independent random streams, so per-transaction outcomes
// differ — calibration checks that the *distributions* agree within
// tolerance.
//
// The gated comparisons are deliberately shift-invariant families rather
// than raw stages: under a fractional-severity connectivity episode the
// packet engine books most failures at the DNS stage (single UDP
// exchanges are fragile to loss) while the fast model's single draw
// splits the same episode between its DNS and TCP outcomes (TCP
// retransmission makes established transfers robust, so packet-mode
// TCP failures are rarer). The family totals are invariant under that
// known shift:
//
//   - overall failure rate;
//   - reachability failures (DNS-stage + TCP-stage combined);
//   - HTTP-stage failures;
//   - client-side DNS failures (ldns-timeout);
//   - remote DNS failures (non-ldns-timeout + error-response).
//
// The raw per-stage and per-class shares are carried in the report for
// inspection. See DESIGN.md §5g for the methodology and EXPERIMENTS.md
// for measured deltas at the calibrated scale.

// CalibrateOptions tunes a calibration run.
type CalibrateOptions struct {
	// Shards is the packet-mode shard count, as RunPacketParallel takes
	// it (<= 0 selects GOMAXPROCS). Calibration results are
	// shard-count-independent: the packet engine's record stream is
	// byte-identical for any value.
	Shards int
}

// The calibration tolerances: the permitted absolute difference in
// overall failure rate (1.5 percentage points), and in any gated share
// family, measured as a fraction of all transactions.
const (
	calibrationRateTol  = 0.015
	calibrationShareTol = 0.0125
)

// CalibrationStats summarizes one mode's run.
type CalibrationStats struct {
	Txns     int64
	Failures int64
	// Stage[s] counts transactions that failed at stage s.
	Stage [4]int64
	// DNSClass counts DNS-stage failures by outcome.
	DNSClass [5]int64
}

// FailureRate is Failures/Txns.
func (s *CalibrationStats) FailureRate() float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.Failures) / float64(s.Txns)
}

// StageShare is the fraction of all transactions failing at stage.
func (s *CalibrationStats) StageShare(stage httpsim.Stage) float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.Stage[stage]) / float64(s.Txns)
}

// DNSShare is the fraction of all transactions whose DNS phase concluded
// with the given (failure) outcome.
func (s *CalibrationStats) DNSShare(o DNSOutcome) float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.DNSClass[o]) / float64(s.Txns)
}

// ReachShare is the fraction of transactions failing to reach the
// content at all (DNS or TCP stage) — invariant under the engines'
// known DNS↔TCP stage shift.
func (s *CalibrationStats) ReachShare() float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.Stage[httpsim.StageDNS]+s.Stage[httpsim.StageTCP]) / float64(s.Txns)
}

// RemoteDNSShare is the fraction of transactions whose DNS failure was
// attributable to the remote side (non-LDNS timeout or a definitive
// error response).
func (s *CalibrationStats) RemoteDNSShare() float64 {
	if s.Txns == 0 {
		return 0
	}
	return float64(s.DNSClass[DNSNonLDNSTimeout]+s.DNSClass[DNSErrorResponse]) / float64(s.Txns)
}

func (s *CalibrationStats) observe(r *Record) {
	s.Txns++
	if r.Failed() {
		s.Failures++
		s.Stage[r.Stage]++
		if r.Stage == httpsim.StageDNS {
			s.DNSClass[r.DNS]++
		}
	}
}

// CalibrationReport is the outcome of a fast-vs-packet comparison.
type CalibrationReport struct {
	Fast, Packet CalibrationStats
	// RateDelta is |fast failure rate - packet failure rate|.
	RateDelta float64
	// MaxShareDelta is the largest absolute difference across the
	// per-stage failure shares and the DNS-class shares.
	MaxShareDelta float64
	// WorstShare names the share with the largest delta.
	WorstShare string
	// RateTol and ShareTol echo the thresholds applied.
	RateTol, ShareTol float64
	// Pass reports whether every delta fell within tolerance.
	Pass bool
}

// String renders a compact human-readable summary.
func (r *CalibrationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration: fast %d txns (%.4f fail) vs packet %d txns (%.4f fail)\n",
		r.Fast.Txns, r.Fast.FailureRate(), r.Packet.Txns, r.Packet.FailureRate())
	fmt.Fprintf(&b, "  rate delta  %.4f (tol %.4f)\n", r.RateDelta, r.RateTol)
	fmt.Fprintf(&b, "  share delta %.4f on %s (tol %.4f)\n", r.MaxShareDelta, r.WorstShare, r.ShareTol)
	fmt.Fprintf(&b, "  reachability fast %.4f  packet %.4f\n", r.Fast.ReachShare(), r.Packet.ReachShare())
	fmt.Fprintf(&b, "  dns remote   fast %.4f  packet %.4f\n", r.Fast.RemoteDNSShare(), r.Packet.RemoteDNSShare())
	for _, st := range []httpsim.Stage{httpsim.StageDNS, httpsim.StageTCP, httpsim.StageHTTP} {
		fmt.Fprintf(&b, "  stage %-7s fast %.4f  packet %.4f\n", st, r.Fast.StageShare(st), r.Packet.StageShare(st))
	}
	for _, o := range []DNSOutcome{DNSLDNSTimeout, DNSNonLDNSTimeout, DNSErrorResponse} {
		fmt.Fprintf(&b, "  dns %-16s fast %.4f  packet %.4f\n", o, r.Fast.DNSShare(o), r.Packet.DNSShare(o))
	}
	if r.Pass {
		b.WriteString("  PASS")
	} else {
		b.WriteString("  FAIL")
	}
	return b.String()
}

// Calibrate runs the configuration through both modes and compares the
// resulting failure distributions. The same Config (topology, scenario,
// seed, window) drives both runs; cfg.Metrics, when set, receives both
// runs' counters (packet-mode counters are prefixed by their engine).
func Calibrate(cfg Config, opts CalibrateOptions) (*CalibrationReport, error) {
	rep := &CalibrationReport{RateTol: calibrationRateTol, ShareTol: calibrationShareTol}

	if err := Run(cfg, rep.Fast.observe); err != nil {
		return nil, fmt.Errorf("calibrate: fast run: %w", err)
	}
	if err := RunPacketParallel(cfg, opts.Shards, func(_ int, r *Record) { rep.Packet.observe(r) }); err != nil {
		return nil, fmt.Errorf("calibrate: packet run: %w", err)
	}
	if rep.Fast.Txns == 0 || rep.Packet.Txns == 0 {
		return nil, fmt.Errorf("calibrate: empty run (fast %d, packet %d txns)", rep.Fast.Txns, rep.Packet.Txns)
	}

	rep.RateDelta = math.Abs(rep.Fast.FailureRate() - rep.Packet.FailureRate())
	check := func(name string, f, p float64) {
		if d := math.Abs(f - p); d > rep.MaxShareDelta {
			rep.MaxShareDelta = d
			rep.WorstShare = name
		}
	}
	check("reachability", rep.Fast.ReachShare(), rep.Packet.ReachShare())
	check("http", rep.Fast.StageShare(httpsim.StageHTTP), rep.Packet.StageShare(httpsim.StageHTTP))
	check("dns:client-side", rep.Fast.DNSShare(DNSLDNSTimeout), rep.Packet.DNSShare(DNSLDNSTimeout))
	check("dns:remote", rep.Fast.RemoteDNSShare(), rep.Packet.RemoteDNSShare())
	rep.Pass = rep.RateDelta <= rep.RateTol && rep.MaxShareDelta <= rep.ShareTol
	return rep, nil
}
