package measure

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"webfail/internal/httpsim"
	"webfail/internal/obs"
	"webfail/internal/trace"
	"webfail/internal/workload"
)

// traceTxn records one packet-mode transaction into the shard tracer.
// Packet mode has no allocation-free scratch path: the event loop
// completes transactions out of canonical order, so the tracer's
// ordered insert (keep the K smallest canonical keys per class) does
// the sampling, and the spans are built only after Admit confirms the
// key would currently be kept. The per-client ordinal is canonical
// because a client's completion order is shard-layout-invariant (the
// record-stream identity contract of RunPacketParallel).
func (w *world) traceTxn(ch *clientHost, site *workload.WebsiteNode, rec *Record, res *httpsim.FetchResult, digDur time.Duration) {
	li := int(rec.ClientIdx) - w.clientLo
	seq := w.trSeq[li]
	w.trSeq[li]++
	class := ClassOf(rec)
	if !w.tracer.Admit(class.String(), int64(rec.ClientIdx), seq) {
		return
	}

	node := ch.node
	ex := obs.TraceExemplar{
		Class: class.String(),
		Label: node.Name + " x " + site.Host,
		Major: int64(rec.ClientIdx),
		Minor: seq,
		Spans: make([]obs.TraceSpan, 0, 4+len(res.Attempts)),
	}

	// Root transaction span: wget plus the forensic dig, when one ran.
	ex.Spans = append(ex.Spans, traceSpan("txn", 0, int64(rec.At), int64(rec.Elapsed+digDur),
		class.String(), summarizeEpisodes(w.tl, w.ids.Touched(int(rec.ClientIdx), int(rec.SiteIdx)), rec.At)))

	// Resolution phase.
	if rec.Proxied {
		ex.Spans = append(ex.Spans, traceSpan("proxy-dns", 1, int64(rec.At), int64(rec.DNSTime), "masked", ""))
	} else {
		ex.Spans = append(ex.Spans, traceSpan("dns", 1, int64(rec.At), int64(rec.DNSTime), rec.DNS.String(), ""))
	}

	// One span per TCP connection attempt, annotated with its flow key so
	// capture post-processing (trace.Flow is keyed the same way) can join
	// per-flow statistics back onto the span.
	dstPort := uint16(httpsim.HTTPPort)
	if rec.Proxied {
		dstPort = httpsim.ProxyPort
	}
	for i := range res.Attempts {
		a := &res.Attempts[i]
		outcome := "connected"
		if a.Kind != httpsim.ConnOK {
			outcome = a.Kind.String()
		}
		detail := fmt.Sprintf("flow=%v:%d->%v:%d", node.Addr, a.LocalPort, a.Addr, dstPort)
		ex.Spans = append(ex.Spans, traceSpan("tcp "+a.Addr.String(), 1,
			int64(a.Start), int64(a.End.Sub(a.Start)), outcome, detail))
	}

	// HTTP exchange rides the decisive (last) attempt.
	if rec.StatusCode != 0 && len(res.Attempts) > 0 {
		a := &res.Attempts[len(res.Attempts)-1]
		st := statusText(rec.StatusCode)
		if st == "" {
			st = strconv.Itoa(int(rec.StatusCode))
		}
		ex.Spans = append(ex.Spans, traceSpan("http", 2,
			int64(a.Start), int64(a.End.Sub(a.Start)), st, ""))
	}

	// Step-3 forensic dig, after the wget gave up.
	if digDur > 0 {
		ex.Spans = append(ex.Spans, traceSpan("dig", 1,
			int64(rec.At.Add(rec.Elapsed)), int64(digDur), rec.DNS.String(), ""))
	}

	w.tracer.Add(ex)
}

func traceSpan(name string, depth int, start, dur int64, outcome, detail string) obs.TraceSpan {
	return obs.TraceSpan{Name: name, Depth: depth, Start: start, Dur: dur, Outcome: outcome, Detail: detail}
}

// annotateFlowSpans joins capture-derived per-flow TCP statistics onto
// the attempt spans whose flow keys match — the Section 3.5 cross-layer
// check, rendered inline. Captures only exist on the serial path
// (RunPacketWithCapture), so the annotation cannot perturb the sharded
// byte-identity contract.
func (w *world) annotateFlowSpans(caps map[string]CaptureResult) {
	if w.tracer == nil || len(caps) == 0 {
		return
	}
	stats := make(map[string]*trace.FlowStats)
	for _, cr := range caps {
		for f, st := range cr.Flows {
			stats[f.String()] = st
		}
	}
	for _, class := range w.tracer.Classes() {
		for _, ex := range w.tracer.Exemplars(class) {
			for i := range ex.Spans {
				sp := &ex.Spans[i]
				key, ok := strings.CutPrefix(sp.Detail, "flow=")
				if !ok {
					continue
				}
				if st, ok := stats[key]; ok {
					sp.Detail += fmt.Sprintf(" capture: pkts=%d retx=%d class=%s",
						st.ClientPackets+st.ServerPackets,
						st.ClientRetransmits+st.ServerRetransmits,
						st.Classify())
				}
			}
		}
	}
}
