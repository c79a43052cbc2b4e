package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceSpan is one node of a transaction's causal span tree, flattened
// in pre-order with Depth giving the nesting level (the root span has
// Depth 0). Start and Dur are virtual-clock nanoseconds, so a span tree
// is byte-for-byte reproducible from the seed alone.
type TraceSpan struct {
	Name    string // "txn", "dns", "tcp 10.0.3.7", "http", ...
	Depth   int    // nesting level under the root span
	Start   int64  // virtual ns since the experiment epoch
	Dur     int64  // virtual ns
	Outcome string // stage-specific outcome ("ok", "no-connection", "503", ...)
	Detail  string // blame / cross-link annotations; may be empty
}

// TraceExemplar is one sampled transaction: its failure class, a human
// label ("pl-003 x www.example.com"), its span tree, and the canonical
// sort key (Major, Minor) — for the simulator, (client index, per-client
// transaction ordinal) — that makes sampling shard-invariant.
type TraceExemplar struct {
	Class        string
	Label        string
	Major, Minor int64
	Spans        []TraceSpan
}

// Tracer collects the first K exemplars per failure class in canonical
// (Major, Minor) order. "First" is defined by the key, not by arrival
// order: Add keeps a class's K smallest keys seen so far, so shards that
// complete transactions out of canonical order (packet mode's event
// loop) still converge on the same exemplar set. Per-shard Tracers are
// combined with Merge, which is an ordered merge and therefore
// independent of shard count — the same contract core.Analysis.Merge
// follows.
//
// A Tracer is not safe for concurrent use; use one per shard and merge.
type Tracer struct {
	k       int
	classes map[string][]*TraceExemplar // each slice sorted by key, len <= k
}

// NewTracer returns a Tracer keeping up to k exemplars per class.
func NewTracer(k int) *Tracer {
	if k < 1 {
		k = 1
	}
	return &Tracer{k: k, classes: make(map[string][]*TraceExemplar)}
}

// K reports the per-class exemplar cap.
func (t *Tracer) K() int { return t.k }

// keyLess orders exemplars by (Major, Minor).
func keyLess(aMaj, aMin, bMaj, bMin int64) bool {
	if aMaj != bMaj {
		return aMaj < bMaj
	}
	return aMin < bMin
}

// Admit reports whether an exemplar with the given class and key would
// currently be kept by Add. Callers use it to skip building span trees
// (and their string materialisation) for transactions that cannot make
// the sample.
func (t *Tracer) Admit(class string, major, minor int64) bool {
	list := t.classes[class]
	if len(list) < t.k {
		return true
	}
	last := list[len(list)-1]
	return keyLess(major, minor, last.Major, last.Minor)
}

// Add inserts ex into its class's sample, keeping the K smallest keys.
// It reports whether the exemplar was kept. The exemplar is stored by
// pointer; callers must not reuse its Spans backing array afterwards.
func (t *Tracer) Add(ex TraceExemplar) bool {
	list := t.classes[ex.Class]
	i := sort.Search(len(list), func(i int) bool {
		return !keyLess(list[i].Major, list[i].Minor, ex.Major, ex.Minor)
	})
	if i >= t.k {
		return false
	}
	e := ex
	if len(list) < t.k {
		list = append(list, nil)
	}
	copy(list[i+1:], list[i:])
	list[i] = &e
	t.classes[ex.Class] = list
	return true
}

// Merge folds src's exemplars into t, preserving canonical order and
// the per-class cap. Both tracers must have the same K. src is left
// unchanged. Merging per-shard tracers in any order yields the same
// result as a single serial run, because the kept set is defined by the
// K smallest canonical keys per class.
func (t *Tracer) Merge(src *Tracer) error {
	if src == nil {
		return nil
	}
	if src.k != t.k {
		return fmt.Errorf("obs: tracer merge: exemplar cap mismatch (%d vs %d)", t.k, src.k)
	}
	for _, list := range src.classes {
		for _, ex := range list {
			t.Add(*ex)
		}
	}
	return nil
}

// Classes returns the sampled failure classes in sorted order.
func (t *Tracer) Classes() []string {
	out := make([]string, 0, len(t.classes))
	for c := range t.classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Exemplars returns the kept exemplars for class in canonical order.
// The returned slice aliases the tracer's storage: span Detail fields
// may be annotated in place (packet mode's flow-stats cross-link).
func (t *Tracer) Exemplars(class string) []*TraceExemplar {
	return t.classes[class]
}

// Len reports the total number of kept exemplars across all classes.
func (t *Tracer) Len() int {
	n := 0
	for _, list := range t.classes {
		n += len(list)
	}
	return n
}

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (ph "X" = complete event, ph "M" = metadata).
// Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  *int64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the kept exemplars as Chrome trace-event JSON
// (the chrome://tracing / Perfetto "JSON Object Format"). Each failure
// class becomes a process (pid), each exemplar a thread (tid) named
// after its label, and each span a complete ("X") event; nesting is
// conveyed by timestamp containment, which the viewers render as flame
// stacks. Output is deterministic: classes sort alphabetically,
// exemplars by canonical key, and all numbers are integral.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for pid, class := range t.Classes() {
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": class},
		}); err != nil {
			return err
		}
		for tid, ex := range t.Exemplars(class) {
			if err := emit(chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]string{"name": ex.Label},
			}); err != nil {
				return err
			}
			for _, sp := range ex.Spans {
				dur := sp.Dur / 1000
				args := map[string]string{"outcome": sp.Outcome}
				if sp.Detail != "" {
					args["detail"] = sp.Detail
				}
				if err := emit(chromeEvent{
					Name: sp.Name, Cat: class, Ph: "X",
					Ts: sp.Start / 1000, Dur: &dur,
					Pid: pid, Tid: tid, Args: args,
				}); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
