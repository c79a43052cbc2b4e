package measure

import (
	"testing"
	"time"

	"webfail/internal/faults"
	"webfail/internal/httpsim"
	"webfail/internal/simnet"
	"webfail/internal/trace"
)

// TestTraceAgreesWithClientObservation is the Section 3.5 redundancy
// check: the tcpdump-style trace, post-processed independently, must
// classify the client's TCP connections the same way the client itself
// did. One healthy hour, one server-outage hour, one hung-server hour.
func TestTraceAgreesWithClientObservation(t *testing.T) {
	cfg := quietConfig(t, 1, 2, 3)
	topo := cfg.Topo
	tl := faults.NewTimeline()
	tl.Add(faults.Episode{
		Entity: faults.Entity("www:" + topo.Websites[0].Host),
		Kind:   faults.ServerOutage,
		Start:  simnet.FromHours(1), Duration: time.Hour, Severity: 1,
	})
	tl.Add(faults.Episode{
		Entity: faults.Entity("www:" + topo.Websites[1].Host),
		Kind:   faults.ServerOverload,
		Mode:   2, // workload.OverloadStall
		Start:  simnet.FromHours(2), Duration: time.Hour, Severity: 1,
	})
	tl.Freeze()
	cfg.Scenario.Timeline = tl

	clientName := topo.Clients[0].Name
	recCounts := map[httpsim.ConnFailKind]int{}
	var successRecords, totalConns int
	err := RunPacketWithCapture(cfg, []string{clientName},
		func(r *Record) {
			totalConns += int(r.Conns)
			if r.Stage == httpsim.StageTCP {
				recCounts[r.FailKind]++
			} else if !r.Failed() {
				successRecords++
			}
		},
		func(cr CaptureResult) {
			if cr.Packets == 0 {
				t.Fatal("empty capture")
			}
			byClass := map[trace.ConnClass]int{}
			for _, fs := range cr.Flows {
				byClass[fs.Classify()]++
			}
			// The trace sees every connection the client attempted.
			if len(cr.Flows) != totalConns {
				t.Errorf("trace connections = %d, client attempted %d", len(cr.Flows), totalConns)
			}
			// Every successful transaction ends in exactly one
			// complete connection (its earlier attempts, if any,
			// were failures and classify as such).
			if byClass[trace.ConnComplete] != successRecords {
				t.Errorf("trace complete = %d, successful transactions = %d", byClass[trace.ConnComplete], successRecords)
			}
			if byClass[trace.ConnNoConnection] == 0 && recCounts[httpsim.NoConnection] > 0 {
				t.Error("client saw no-connection failures but trace found none")
			}
			if byClass[trace.ConnPartialResponse] == 0 && recCounts[httpsim.PartialResponse] > 0 {
				t.Error("client saw partial responses but trace found none")
			}
			// No class appears in the trace that the client never
			// observed (outside successes).
			if byClass[trace.ConnNoResponse] > 0 && recCounts[httpsim.NoResponse] == 0 {
				t.Errorf("trace found %d no-response conns the client never reported", byClass[trace.ConnNoResponse])
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if recCounts[httpsim.NoConnection] == 0 || recCounts[httpsim.PartialResponse] == 0 {
		t.Fatalf("scenario did not produce both failure kinds: %v", recCounts)
	}
}
