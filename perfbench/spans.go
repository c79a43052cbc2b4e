package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"webfail/internal/measure"
)

// span is one timed layer call of a traced run.
type span struct {
	Name       string
	Lane       int           // 0: the pipeline goroutine; 1+s: worker shard s
	Parent     int           // index of the parent span, -1 for a root
	Start, End time.Duration // offsets from the recorder's origin
}

// recorder keeps the spans of a traced run in memory until the run
// ends. A nil *recorder records nothing, so the untraced pipeline calls
// it unconditionally.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(name string, lane, parent int) int {
	return r.beginAt(name, lane, parent, time.Now())
}

func (r *recorder) beginAt(name string, lane, parent int, t time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Lane: lane, Parent: parent, Start: t.Sub(r.origin), End: t.Sub(r.origin)})
	return len(r.spans) - 1
}

// end closes span id now and returns the closing time.
func (r *recorder) end(id int) time.Time {
	t := time.Now()
	r.endAt(id, t)
	return t
}

func (r *recorder) endAt(id int, t time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t.Sub(r.origin)
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	if r == nil {
		return 0
	}
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// layerOf maps a span name to its layer, the text before the first dot.
// Roots ("pipeline", "generate") are the harness's own time.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfTimes attributes every instant of root's interval to the innermost
// spans open at that instant — the spans of root's subtree with no open
// child — split evenly among them while shard lanes overlap, and sums
// the shares per layer. The shares add up to root's duration, so the
// per-layer self times decompose the traced pipeline's wall time.
func (r *recorder) selfTimes(root int) map[string]float64 {
	self := map[string]float64{}
	if r == nil || root < 0 {
		return self
	}
	// Subtree membership, with each span clamped into its parent's
	// interval. Parents always precede their children in r.spans.
	spans := append([]span(nil), r.spans...)
	in := make([]bool, len(spans))
	in[root] = true
	for i := root + 1; i < len(spans); i++ {
		p := spans[i].Parent
		if p < 0 || !in[p] {
			continue
		}
		in[i] = true
		s := &spans[i]
		s.Start = min(max(s.Start, spans[p].Start), spans[p].End)
		s.End = min(max(s.End, s.Start), spans[p].End)
	}
	type event struct {
		t    time.Duration
		open bool
		id   int
	}
	var evs []event
	for i, s := range spans {
		if in[i] {
			evs = append(evs, event{s.Start, true, i}, event{s.End, false, i})
		}
	}
	// Closes before opens at equal times; parents open before and close
	// after their children.
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.open != b.open {
			return !a.open
		}
		if a.open {
			return a.id < b.id
		}
		return a.id > b.id
	})
	openKids := make([]int, len(spans))
	isOpen := make([]bool, len(spans))
	var frontier []int
	drop := func(id int) {
		for k, f := range frontier {
			if f == id {
				frontier = append(frontier[:k], frontier[k+1:]...)
				return
			}
		}
	}
	prev := spans[root].Start
	for _, e := range evs {
		if dt := e.t - prev; dt > 0 && len(frontier) > 0 {
			share := dt.Seconds() / float64(len(frontier))
			for _, id := range frontier {
				self[layerOf(spans[id].Name)] += share
			}
		}
		prev = e.t
		p := spans[e.id].Parent
		if e.id == root {
			p = -1
		}
		if e.open {
			isOpen[e.id] = true
			frontier = append(frontier, e.id)
			if p >= 0 {
				if openKids[p]++; openKids[p] == 1 {
					drop(p)
				}
			}
			continue
		}
		isOpen[e.id] = false
		drop(e.id)
		if p >= 0 {
			if openKids[p]--; openKids[p] == 0 && isOpen[p] {
				frontier = append(frontier, p)
			}
		}
	}
	return self
}

// duration returns span id's duration.
func (r *recorder) duration(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	return r.spans[id].End - r.spans[id].Start
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeEvents renders the spans as complete ("X") events of process
// pid, one thread per lane, shifted by offset.
func (r *recorder) chromeEvents(pid int, offset time.Duration) []chromeEvent {
	lanes := map[int]bool{}
	var evs []chromeEvent
	for _, s := range r.spans {
		ev := chromeEvent{Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Ts: us(offset + s.Start), Dur: us(s.End - s.Start), Pid: pid, Tid: s.Lane}
		if s.Parent >= 0 {
			ev.Args = map[string]string{"parent": r.spans[s.Parent].Name}
		}
		evs = append(evs, ev)
		lanes[s.Lane] = true
	}
	for lane := range lanes {
		name := "main"
		if lane > 0 {
			name = "shard " + strconv.Itoa(lane-1)
		}
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: lane, Args: map[string]string{"name": name}})
	}
	return evs
}

// writeChrome writes the spans of every recorder into one Chrome
// trace-event file, one process per recorder, on a common time base.
func writeChrome(path string, meta any, recs ...*recorder) error {
	if len(recs) == 0 {
		return fmt.Errorf("no spans")
	}
	base := recs[0].origin
	for _, r := range recs {
		if r.origin.Before(base) {
			base = r.origin
		}
	}
	var evs []chromeEvent
	for i, r := range recs {
		evs = append(evs, r.chromeEvents(i+1, r.origin.Sub(base))...)
	}
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// batchRecords is the traced run's visitor batch: records are copied into
// a per-shard buffer and handed to each layer a batch at a time.
const batchRecords = 4096

// batchStep is one layer call a batcher times per batch.
type batchStep struct {
	span string
	fn   func(*measure.Record)
}

// batcher feeds one shard's records to the layers in batches during a
// traced run and records one span per layer per batch: timing every
// record's call would cost more than the calls.
type batcher struct {
	rec       *recorder
	lane      int
	parent    int // the shard's span
	steps     []batchStep
	buf       []measure.Record
	records   int64
	lastFlush time.Time
}

func newBatcher(rec *recorder, lane, parent int, steps ...batchStep) *batcher {
	return &batcher{rec: rec, lane: lane, parent: parent, steps: steps,
		buf: make([]measure.Record, 0, batchRecords), lastFlush: time.Now()}
}

// visit copies r (the engines reuse the pointed-to record).
func (b *batcher) visit(r *measure.Record) {
	b.buf = append(b.buf, *r)
	if len(b.buf) == batchRecords {
		b.flush(b.parent)
	}
}

// flush hands the buffered records to every step, one span per step.
func (b *batcher) flush(parent int) {
	if len(b.buf) == 0 {
		return
	}
	for _, st := range b.steps {
		id := b.rec.begin(st.span, b.lane, parent)
		for i := range b.buf {
			st.fn(&b.buf[i])
		}
		b.lastFlush = b.rec.end(id)
	}
	b.records += int64(len(b.buf))
	b.buf = b.buf[:0]
}
