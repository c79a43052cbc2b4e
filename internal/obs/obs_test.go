package obs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSpanRecordsIntoWallSection(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("phase/a")
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d < 2*time.Millisecond {
		t.Fatalf("span duration %v implausibly short", d)
	}
	r.Span("phase/a").End()
	snap := r.Snapshot().Wall
	if got := snap.Counters[`span_count{span="phase/a"}`]; got != 2 {
		t.Fatalf("span_count = %d, want 2", got)
	}
	if secs := snap.Gauges[`span_seconds{span="phase/a"}`]; secs < d.Seconds() {
		t.Fatalf("span_seconds = %v, want >= %v (durations accumulate)", secs, d.Seconds())
	}
	if len(r.Snapshot().Deterministic.Counters) != 0 {
		t.Fatal("span leaked into the deterministic section")
	}
}

func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	p := NewProgress(w, "testcmd", "txns", 1000, 4, 5*time.Millisecond)
	if p.Shard(4) != nil || p.Shard(-1) != nil {
		t.Fatal("out-of-range Shard did not return nil")
	}
	p.Shard(4).Add(1) // nil shard counter must accept updates
	p.Start()
	for s := 0; s < 4; s++ {
		p.Shard(s).Add(int64(100 + 10*s))
	}
	time.Sleep(15 * time.Millisecond)
	p.Stop()

	if got := p.Total(); got != 460 {
		t.Fatalf("Total = %d, want 460", got)
	}
	mu.Lock()
	out := b.String()
	mu.Unlock()
	if !strings.Contains(out, "testcmd: progress") {
		t.Fatalf("no progress lines:\n%s", out)
	}
	if !strings.Contains(out, "46.0% 460/1.0k txns") {
		t.Fatalf("missing percentage report:\n%s", out)
	}
	if !strings.Contains(out, "shard-spread 30") {
		t.Fatalf("missing shard-spread (130-100):\n%s", out)
	}
	if !strings.Contains(out, "done 46.0% 460/1.0k txns in") {
		t.Fatalf("missing final summary:\n%s", out)
	}

	// Nil and never-started reporters are inert.
	var np *Progress
	np.Start()
	np.Shard(0).Add(1)
	np.Stop()
	NewProgress(io.Discard, "x", "y", 0, 1, 0).Stop()
}

// TestProgressFinalFlush pins the final-flush guarantee: a run that
// ends between ticks (the interval here never fires) still emits a
// summary, and its last stderr line carries the 100% completion with
// totals.
func TestProgressFinalFlush(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	p := NewProgress(w, "testcmd", "txns", 500, 2, time.Hour)
	p.Start()
	p.Shard(0).Add(260)
	p.Shard(1).Add(240)
	p.Stop()

	mu.Lock()
	out := strings.TrimRight(b.String(), "\n")
	mu.Unlock()
	lines := strings.Split(out, "\n")
	last := lines[len(lines)-1]
	const wantPrefix = "testcmd: progress done 100.0% 500/500 txns in "
	if !strings.HasPrefix(last, wantPrefix) {
		t.Fatalf("last progress line = %q, want prefix %q", last, wantPrefix)
	}
	// Unknown expected totals omit the percentage but keep the count.
	b.Reset()
	q := NewProgress(w, "testcmd", "recs", 0, 1, time.Hour)
	q.Start()
	q.Shard(0).Add(42)
	q.Stop()
	mu.Lock()
	out = strings.TrimRight(b.String(), "\n")
	mu.Unlock()
	if !strings.HasPrefix(out, "testcmd: progress done 42 recs in ") {
		t.Fatalf("final line without expected total = %q", out)
	}
}

// TestShardCounterTick pins Tick's batching: nothing reaches the
// reporter before a batch fills, exactly one batch does at the
// boundary, and Flush publishes the remainder once. A nil counter
// accepts both calls.
func TestShardCounterTick(t *testing.T) {
	var c ShardCounter
	for i := 0; i < tickBatch-1; i++ {
		c.Tick()
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("after %d ticks Value = %d, want 0 (batch not full)", tickBatch-1, got)
	}
	c.Tick()
	if got := c.Value(); got != tickBatch {
		t.Fatalf("at the batch boundary Value = %d, want %d", got, tickBatch)
	}
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if got := c.Value(); got != tickBatch {
		t.Fatalf("5 ticks into the next batch Value = %d, want %d", got, tickBatch)
	}
	c.Flush()
	c.Flush()
	if got := c.Value(); got != tickBatch+5 {
		t.Fatalf("after Flush Value = %d, want %d", got, tickBatch+5)
	}

	var nc *ShardCounter
	nc.Tick()
	nc.Flush()
	if got := nc.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
}

// TestShardCounterTickConcurrentReader runs ticking workers against a
// live reporter and a reading loop; under -race it gates that Tick's
// worker-only batch never races the reader. The total the reader sees
// never decreases, and it is exact once every worker has flushed.
func TestShardCounterTickConcurrentReader(t *testing.T) {
	const shards, perShard = 3, 2*tickBatch + 17
	p := NewProgress(io.Discard, "testcmd", "items", shards*perShard, shards, time.Millisecond)
	p.Start()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(c *ShardCounter) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				c.Tick()
			}
			c.Flush()
		}(p.Shard(s))
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	for last := int64(0); ; {
		select {
		case <-finished:
			p.Stop()
			if got := p.Total(); got != shards*perShard {
				t.Fatalf("Total = %d, want %d", got, shards*perShard)
			}
			return
		default:
		}
		got := p.Total()
		if got < last || got > shards*perShard {
			t.Fatalf("Total = %d mid-run after %d: want a non-decreasing count <= %d", got, last, shards*perShard)
		}
		last = got
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestFmtCount(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0"}, {987, "987"}, {23_400, "23.4k"}, {1_350_000, "1.35M"},
		{2_100_000_000, "2.10G"}, {-1500, "-1.5k"},
	}
	for _, tc := range cases {
		if got := fmtCount(tc.n); got != tc.want {
			t.Errorf("fmtCount(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestLogfAndFatalf(t *testing.T) {
	var b strings.Builder
	restore := SetLogOutput(&b)
	defer restore()
	Logf("mycmd", "bad thing %d", 7)
	if got := b.String(); got != "mycmd: bad thing 7\n" {
		t.Fatalf("Logf output = %q", got)
	}

	b.Reset()
	exited := -1
	prevExit := osExit
	osExit = func(code int) { exited = code }
	defer func() { osExit = prevExit }()
	Fatalf("mycmd", "fatal %s", "err")
	if exited != 1 {
		t.Fatalf("Fatalf exit code = %d, want 1", exited)
	}
	if got := b.String(); got != "mycmd: fatal err\n" {
		t.Fatalf("Fatalf output = %q", got)
	}
}

func TestCLIFlagsSession(t *testing.T) {
	dir := t.TempDir()
	f := CLIFlags{
		MemProfile:    filepath.Join(dir, "heap.prof"),
		MetricsOut:    filepath.Join(dir, "metrics.txt"),
		MetricsListen: "127.0.0.1:0",
	}
	reg := NewRegistry()
	reg.Counter("smoke_total").Add(3)
	sess, err := f.Start("testcmd", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := sess.ListenAddr()
	if addr == "" {
		t.Fatal("no listener address for :0 listen")
	}
	for path, want := range map[string]string{
		"/metrics":      "smoke_total 3",
		"/metrics.json": `"smoke_total": 3`,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: missing %q:\n%s", path, want, body)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	dump, err := os.ReadFile(f.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "smoke_total 3") {
		t.Fatalf("metrics dump missing counter:\n%s", dump)
	}
	if st, err := os.Stat(f.MemProfile); err != nil || st.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Fatal("listener still serving after Close")
	}
}

// TestMetricsListenerConcurrentScrape covers the live /metrics
// listener the way a monitored run exercises it: writer goroutines
// update counters and histograms while scrapers hit /metrics and
// /metrics.json concurrently, and the session closes while the
// scrapers are still looping — the "run finished before the scraper"
// shutdown must be graceful: completed scrapes return full bodies,
// post-close scrapes fail with a connection error, nothing panics.
// Run under -race, this also gates snapshot-vs-update safety.
func TestMetricsListenerConcurrentScrape(t *testing.T) {
	f := CLIFlags{MetricsListen: "127.0.0.1:0"}
	reg := NewRegistry()
	sess, err := f.Start("testcmd", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := sess.ListenAddr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := reg.Histogram("scrape_lat_ms", []float64{1, 10, 100})
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Counter("txns_total").Add(1)
			h.Observe(float64(i % 120))
		}
	}()

	var scraped atomic.Int64
	for _, path := range []string{"/metrics", "/metrics.json"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + addr + path)
				if err != nil {
					return // listener closed under us: the graceful end
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					return // close raced the body read; also graceful
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
				if len(body) == 0 {
					t.Errorf("GET %s: empty body", path)
					return
				}
				scraped.Add(1)
			}
		}()
	}

	// Let scrapes overlap updates, then end the "run" while scrapers
	// are still going.
	deadline := time.Now().Add(time.Second)
	for scraped.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close during live scrapes: %v", err)
	}
	close(stop)
	wg.Wait()
	if scraped.Load() == 0 {
		t.Error("no scrape completed while the run was live")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("listener still serving after Close")
	}
}

func TestCLIFlagsRegisterDefaults(t *testing.T) {
	var f CLIFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-progress", "-metrics-out", "m.txt"}); err != nil {
		t.Fatal(err)
	}
	if !f.Progress || f.MetricsOut != "m.txt" || f.CPUProfile != "" {
		t.Fatalf("parsed flags = %+v", f)
	}
	// No flags set: Start is a cheap no-op session.
	var off CLIFlags
	sess, err := off.Start("x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ListenAddr() != "" {
		t.Fatal("idle session claims a listener")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
