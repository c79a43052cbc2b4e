package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ShardCounter is one shard's completed-work count, updated by that
// shard's worker and read by the progress reporter. Counters are padded
// so adjacent shards do not false-share a cache line. The nil counter
// (from a nil Progress) accepts updates.
type ShardCounter struct {
	n atomic.Int64
	// pending holds the Ticks not yet published to n; only the worker
	// touches it.
	pending int64
	_       [48]byte
}

// tickBatch is how many Ticks a counter collects before publishing
// them with one atomic add: the reporter sees progress every few
// thousand items, and a hot loop pays a plain increment per item.
const tickBatch = 8192

// Add records n completed items at once, for callers that count in
// bulk.
func (c *ShardCounter) Add(n int64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Tick records one completed item. Ticks reach the reporter in batches
// of tickBatch, and Flush publishes the rest, so a worker calls Flush
// when its shard is done. Only the shard's worker may call Tick and
// Flush.
func (c *ShardCounter) Tick() {
	if c == nil {
		return
	}
	if c.pending++; c.pending >= tickBatch {
		c.Flush()
	}
}

// Flush publishes the Ticks recorded since the last batch.
func (c *ShardCounter) Flush() {
	if c == nil || c.pending == 0 {
		return
	}
	c.n.Add(c.pending)
	c.pending = 0
}

// Value returns the shard's current count.
func (c *ShardCounter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Progress periodically reports pipeline completion to a writer
// (stderr in the CLIs): items done versus expected, throughput, ETA,
// and — with multiple shards — the spread between the most and least
// advanced shard. All output is wall-clock commentary; nothing reaches
// stdout and nothing feeds back into the computation, so enabling
// progress cannot perturb results.
//
// Workers count on their own shard's counter: Shard(i).Tick per item in
// hot loops (published in batches of a few thousand, the rest by a
// final Flush), or Shard(i).Add for bulk counts. Start launches the
// reporter, Stop emits a final summary line and waits for the reporter
// to exit. All methods are nil-receiver-safe, so "progress off" is
// simply a nil *Progress.
type Progress struct {
	w         io.Writer
	component string
	unit      string
	expected  int64
	every     time.Duration
	shards    []ShardCounter

	mu      sync.Mutex // serializes report lines
	start   time.Time
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewProgress creates a reporter for expected total items (0 = unknown:
// percentage and ETA are omitted) across the given number of shards,
// emitting to w every interval (<= 0 selects 2s).
func NewProgress(w io.Writer, component, unit string, expected int64, shards int, every time.Duration) *Progress {
	if shards < 1 {
		shards = 1
	}
	if every <= 0 {
		every = 2 * time.Second
	}
	return &Progress{
		w:         w,
		component: component,
		unit:      unit,
		expected:  expected,
		every:     every,
		shards:    make([]ShardCounter, shards),
	}
}

// Shard returns shard i's counter, or nil (which still accepts Adds)
// when the reporter was sized with fewer shards.
func (p *Progress) Shard(i int) *ShardCounter {
	if p == nil || i < 0 || i >= len(p.shards) {
		return nil
	}
	return &p.shards[i]
}

// Total returns the summed count across shards.
func (p *Progress) Total() int64 {
	if p == nil {
		return 0
	}
	var t int64
	for i := range p.shards {
		t += p.shards[i].n.Load()
	}
	return t
}

// Start launches the periodic reporter goroutine.
func (p *Progress) Start() {
	if p == nil || p.started {
		return
	}
	p.started = true
	p.start = time.Now()
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.report(false)
			case <-p.stop:
				return
			}
		}
	}()
}

// Stop halts the reporter and emits a final summary line. Safe to call
// on a never-started or nil Progress.
func (p *Progress) Stop() {
	if p == nil || !p.started {
		return
	}
	p.started = false
	close(p.stop)
	<-p.done
	p.report(true)
}

// report writes one progress line.
func (p *Progress) report(final bool) {
	total := p.Total()
	elapsed := time.Since(p.start)
	rate := float64(total) / maxSeconds(elapsed)

	var b strings.Builder
	fmt.Fprintf(&b, "%s: progress ", p.component)
	if final {
		// The final flush always carries the totals (and the completion
		// percentage when the expected count is known), even when the
		// run ended between ticks — the last stderr line is the run's
		// one-line summary.
		b.WriteString("done ")
		if p.expected > 0 {
			fmt.Fprintf(&b, "%.1f%% %s/%s", 100*float64(total)/float64(p.expected),
				fmtCount(total), fmtCount(p.expected))
		} else {
			b.WriteString(fmtCount(total))
		}
		fmt.Fprintf(&b, " %s in %v (%s/s)", p.unit,
			elapsed.Round(10*time.Millisecond), fmtCount(int64(rate)))
	} else {
		if p.expected > 0 {
			fmt.Fprintf(&b, "%.1f%% %s/%s %s", 100*float64(total)/float64(p.expected),
				fmtCount(total), fmtCount(p.expected), p.unit)
		} else {
			fmt.Fprintf(&b, "%s %s", fmtCount(total), p.unit)
		}
		fmt.Fprintf(&b, " %s/s", fmtCount(int64(rate)))
		if p.expected > total && rate > 0 {
			eta := time.Duration(float64(p.expected-total) / rate * float64(time.Second))
			fmt.Fprintf(&b, " eta %v", eta.Round(time.Second))
		}
		if len(p.shards) > 1 {
			lo, hi := p.shards[0].n.Load(), p.shards[0].n.Load()
			for i := 1; i < len(p.shards); i++ {
				n := p.shards[i].n.Load()
				if n < lo {
					lo = n
				}
				if n > hi {
					hi = n
				}
			}
			fmt.Fprintf(&b, " shard-spread %s", fmtCount(hi-lo))
		}
	}
	b.WriteByte('\n')
	p.mu.Lock()
	io.WriteString(p.w, b.String())
	p.mu.Unlock()
}

func maxSeconds(d time.Duration) float64 {
	s := d.Seconds()
	if s < 1e-9 {
		return 1e-9
	}
	return s
}

// fmtCount renders a count compactly: 987, 23.4k, 1.35M, 2.10G.
func fmtCount(n int64) string {
	switch {
	case n < 0:
		return "-" + fmtCount(-n)
	case n < 1000:
		return fmt.Sprintf("%d", n)
	case n < 1_000_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	case n < 1_000_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	default:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	}
}
