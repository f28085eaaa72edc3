package server

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/transcript.txt from this run's responses")

const transcriptPath = "testdata/transcript.txt"

// testConfig is the configuration every test here boots: the defaults,
// with a 20-minute trace, a fresh data directory, no
// self-scrape (its wall-clock dio_* series would make query bodies differ
// between runs) and pprof mounted.
func testConfig(t *testing.T) Config {
	cfg := DefaultConfig()
	cfg.Duration = 20 * time.Minute
	cfg.DataDir = t.TempDir()
	cfg.SelfScrape = false
	cfg.Debug = true
	return cfg
}

// logBuffer collects what Run logs through slog.Default.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// captureLog points slog.Default at a buffer for the test's duration and
// prints the buffer if the test fails.
func captureLog(t *testing.T) *logBuffer {
	logs := &logBuffer{}
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(logs, nil)))
	t.Cleanup(func() {
		slog.SetDefault(prev)
		if t.Failed() {
			t.Logf("server log:\n%s", logs)
		}
	})
	return logs
}

// running is one Run on a loopback listener. Requests sent before Run
// has finished assembling wait in the listener's accept queue.
type running struct {
	base   string
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

func boot(t *testing.T, cfg Config) *running {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- Run(ctx, cfg, ln) }()
	t.Cleanup(func() { r.stop() })
	return r
}

// stop cancels Run's context and returns what Run returned.
func (r *running) stop() error {
	r.once.Do(func() {
		r.cancel()
		r.err = <-r.done
	})
	return r.err
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{}}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig().Validate() = %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"unknown model", func(c *Config) { c.Model = "gpt-5" }, "-model"},
		{"retention without data dir", func(c *Config) { c.Retention = time.Hour }, "-retention needs -data-dir"},
		{"zero self-scrape interval", func(c *Config) { c.SelfScrapeInterval = 0 }, "-selfscrape-interval"},
		// The one slow threshold serves traces and the slow-query log.
		{"zero trace slow", func(c *Config) { c.slow = 0 }, "slow threshold"},
		{"negative slow query threshold", func(c *Config) { c.slow = -time.Second }, "slow threshold"},
		{"retention without checkpoints", func(c *Config) {
			c.Retention, c.DataDir, c.maintenance = time.Hour, "d", 0
		}, "maintenance tick"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.edit(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestConfigValidateBeforeWork: an invalid Config fails before Run
// writes anything into the data directory.
func TestConfigValidateBeforeWork(t *testing.T) {
	cfg := testConfig(t)
	cfg.Model = "gpt-5"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), cfg, ln); err == nil {
		t.Fatal("Run with an unknown model returned nil")
	}
	if entries, _ := os.ReadDir(cfg.DataDir); len(entries) != 0 {
		t.Errorf("Run wrote %d entries into -data-dir before rejecting the config", len(entries))
	}
}

// TestRunShutdown cancels Run while the self-scrape and maintenance
// loops tick every millisecond; with -retention set, each maintenance tick
// truncates and then checkpoints. Run must wait for both loops before its
// final checkpoint: it returns nil, logs no failed checkpoint, truncate or
// store close, and leaves no goroutine of its own running.
func TestRunShutdown(t *testing.T) {
	logs := captureLog(t)
	cfg := testConfig(t)
	cfg.SelfScrape, cfg.SelfScrapeInterval = true, time.Millisecond
	cfg.maintenance, cfg.Retention = time.Millisecond, time.Hour
	before := runtime.NumGoroutine()
	client := newClient()
	r := boot(t, cfg)
	resp, err := client.Get(r.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Let both loops tick many times; the checks below do not depend on
	// how many ticks ran.
	time.Sleep(50 * time.Millisecond)
	if err := r.stop(); err != nil {
		t.Fatalf("Run returned %v", err)
	}
	if stacks := allStacks(); strings.Contains(stacks, "created by dio/internal/server.Run") {
		t.Errorf("a goroutine Run started is still running after Run returned:\n%s", stacks)
	}
	client.CloseIdleConnections()
	for _, bad := range []string{"checkpoint failed", "retention truncate failed", "closing ingest store failed"} {
		if strings.Contains(logs.String(), bad) {
			t.Errorf("shutdown logged %q", bad)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run returned, %d before it started:\n%s", n, before, allStacks())
	}
}

func allStacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// An entry is one record of the transcript: a request and the response
// the server gave it, or a restart.
//
//	# comments, kept by -update
//	>>> METHOD TARGET
//	request body (optional)
//	<<< STATUS CONTENT-TYPE
//	response body view (optional)
//	(blank line)
//
// "=== restart" in place of the request stops Run and runs it again on
// the same -data-dir.
type entry struct {
	line     int // of the ">>>" or "===" line
	comments []string
	restart  bool
	method   string
	target   string
	reqBody  string
	status   int
	ctype    string
	body     string
}

func parseTranscript(t *testing.T) []*entry {
	t.Helper()
	f, err := os.Open(transcriptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		out      []*entry
		cur      *entry
		comments []string
		inResp   bool
		reqLines []string
		body     []string
	)
	flush := func() {
		if cur != nil {
			cur.reqBody = strings.Join(reqLines, "\n")
			cur.body = strings.Join(body, "\n")
			out = append(out, cur)
		}
		cur, inResp, reqLines, body = nil, false, nil, nil
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case cur == nil && line == "":
		case cur == nil && strings.HasPrefix(line, "#"):
			comments = append(comments, line)
		case cur == nil && line == "=== restart":
			cur = &entry{line: n, comments: comments, restart: true}
			comments = nil
		case cur == nil && strings.HasPrefix(line, ">>> "):
			method, target, ok := strings.Cut(strings.TrimPrefix(line, ">>> "), " ")
			if !ok {
				t.Fatalf("%s:%d: want \">>> METHOD TARGET\", got %q", transcriptPath, n, line)
			}
			cur = &entry{line: n, comments: comments, method: method, target: target}
			comments = nil
		case cur == nil:
			t.Fatalf("%s:%d: want a comment, \">>>\" or \"=== restart\", got %q", transcriptPath, n, line)
		case line == "":
			flush()
		case !inResp && strings.HasPrefix(line, "<<< "):
			status, ctype, _ := strings.Cut(strings.TrimPrefix(line, "<<< "), " ")
			if cur.status, err = strconv.Atoi(status); err != nil {
				t.Fatalf("%s:%d: bad status in %q", transcriptPath, n, line)
			}
			cur.ctype, inResp = ctype, true
		case inResp:
			body = append(body, line)
		default:
			reqLines = append(reqLines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	flush()
	return out
}

func writeTranscript(t *testing.T, entries []*entry) {
	t.Helper()
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteString("\n")
		}
		for _, c := range e.comments {
			b.WriteString(c + "\n")
		}
		if e.restart {
			b.WriteString("=== restart\n")
			continue
		}
		fmt.Fprintf(&b, ">>> %s %s\n", e.method, e.target)
		if e.reqBody != "" {
			b.WriteString(e.reqBody + "\n")
		}
		fmt.Fprintf(&b, "<<< %d %s\n", e.status, e.ctype)
		if e.body != "" {
			b.WriteString(e.body + "\n")
		}
	}
	if err := os.WriteFile(transcriptPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// maskRules is the transcript's one masking rule. Two boots of the same
// Config answer every request alike except in three kinds of value, and
// the rule replaces exactly those:
//   - trace ids: the value of every "trace_id" field, which the tracer
//     mints at random;
//   - durations: "duration_ms", "duration_ns" and "elapsed_ms" values,
//     and the timings an analyzed plan prints, with their share of the
//     total ("total 51µs", "self 9µs", "[23µs 100%", "{23µs 100%");
//   - wall-clock times: every JSON string that is an RFC 3339 timestamp
//     ("opened_at", "start", "time").
//
// Everything else, trace-time timestamps, values, counts, plans and costs
// included, is compared byte for byte.
var maskRules = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"trace_id":"[^"]*"`), `"trace_id":"<trace-id>"`},
	{regexp.MustCompile(`"(duration_ms|duration_ns|elapsed_ms)":[-+.0-9eE]+`), `"${1}":"<duration>"`},
	{regexp.MustCompile(`(total[ =]|self )\d+(\.\d+)?(µs|ms|s)`), `${1}<duration>`},
	{regexp.MustCompile(`([\[{])\d+(\.\d+)?(µs|ms|s) \d+%`), `${1}<duration>`},
	{regexp.MustCompile(`"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?(Z|[+-]\d\d:\d\d)"`), `"<time>"`},
}

func mask(s string) string {
	for _, r := range maskRules {
		s = r.re.ReplaceAllString(s, r.repl)
	}
	return s
}

// view is what the transcript records of a response body: nothing for a
// pprof route (only its status and content type are pinned), the sorted
// metric family names for /metrics (their values move with every
// request), and the masked body otherwise.
func view(path string, body []byte) string {
	switch {
	case strings.HasPrefix(path, "/debug/pprof/"):
		return ""
	case path == "/metrics":
		var names []string
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(rest, " ")
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return strings.Join(names, "\n")
	}
	return mask(strings.TrimRight(string(body), "\n"))
}

// registeredRoutes returns every mux pattern internal/httpapi registers:
// the first argument of each HandleFunc call in its non-test files.
func registeredRoutes(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../httpapi/*.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`HandleFunc\("([A-Z]+ [^"]+)"`)
	var routes []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllSubmatch(src, -1) {
			routes = append(routes, string(m[1]))
		}
	}
	if len(routes) == 0 {
		t.Fatal("found no HandleFunc patterns in internal/httpapi")
	}
	return routes
}

// checkRouteCoverage makes the transcript's route list two-way: every
// registered pattern needs an entry, and every entry must match a
// registered pattern.
func checkRouteCoverage(t *testing.T, entries []*entry) {
	t.Helper()
	mux := http.NewServeMux()
	for _, p := range registeredRoutes(t) {
		mux.HandleFunc(p, func(http.ResponseWriter, *http.Request) {})
	}
	covered := map[string]bool{}
	for _, e := range entries {
		if e.restart {
			continue
		}
		req := httptest.NewRequest(e.method, strings.ReplaceAll(e.target, "{trace_id}", "x"), nil)
		if _, pattern := mux.Handler(req); pattern != "" {
			covered[pattern] = true
		} else {
			t.Errorf("%s:%d: %s %s matches no route internal/httpapi registers", transcriptPath, e.line, e.method, e.target)
		}
	}
	for _, p := range registeredRoutes(t) {
		if !covered[p] {
			t.Errorf("route %q has no entry in %s", p, transcriptPath)
		}
	}
}

// exchange is one request's outcome as the transcript records it.
type exchange struct {
	status  int
	ctype   string
	traceID string
	body    string // the view of the body
	raw     []byte // the body itself
	err     error
}

// send makes e's request, with target in place of e.target, against the
// server at base.
func send(client *http.Client, base string, e *entry, target string) exchange {
	var reqBody io.Reader
	if e.reqBody != "" {
		reqBody = strings.NewReader(e.reqBody)
	}
	req, err := http.NewRequest(e.method, base+target, reqBody)
	if err != nil {
		return exchange{err: err}
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return exchange{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return exchange{resp.StatusCode, resp.Header.Get("Content-Type"),
		resp.Header.Get("X-DIO-Trace-ID"), view(req.URL.Path, raw), raw, err}
}

const unmovedPath = "testdata/unmoved_metrics.txt"

// checkUnmovedMetrics makes testdata/unmoved_metrics.txt two-way against
// the first run's /metrics: a family with no non-zero sample must be
// listed there with the reason the session cannot move it, and a listed
// family must be exported and unmoved. Each line is a family name, then
// its reason; "#" starts a comment.
func checkUnmovedMetrics(t *testing.T, exposition []byte) {
	t.Helper()
	moved := map[string]bool{} // every exported family, true once a sample is non-zero
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			moved[name] = false
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err != nil || v == 0 {
			continue
		}
		// A histogram's samples carry a suffix its family name does not.
		name := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				if _, family := moved[base]; family {
					name = base
				}
			}
		}
		moved[name] = true
	}
	src, err := os.ReadFile(unmovedPath)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for n, line := range strings.Split(string(src), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		switch m, ok := moved[name]; {
		case strings.TrimSpace(reason) == "":
			t.Errorf("%s:%d: %s has no reason", unmovedPath, n+1, name)
		case !ok:
			t.Errorf("%s:%d: %s is not exported by /metrics", unmovedPath, n+1, name)
		case m:
			t.Errorf("%s:%d: %s has a non-zero sample; take it off the list", unmovedPath, n+1, name)
		}
		listed[name] = true
	}
	for name, m := range moved {
		if !m && !listed[name] {
			t.Errorf("/metrics family %s has no non-zero sample in the transcript session; list it in %s with the reason", name, unmovedPath)
		}
	}
}

// TestTranscript boots the assembled server, replays every request in
// testdata/transcript.txt and compares each response's status, content
// type and body view with the recorded one. Midway it restarts Run on
// the same directories and replays the read half. "{trace_id}" in a
// target is the X-DIO-Trace-ID of the previous response. Run with
// -update to rewrite the recorded responses.
func TestTranscript(t *testing.T) {
	captureLog(t)
	entries := parseTranscript(t)
	checkRouteCoverage(t, entries)

	cfg := testConfig(t)
	// Whether a trace or query counts as slow is timing, like the
	// durations the mask hides; an hour keeps a loaded host from flipping
	// a "slow" field.
	cfg.slow = time.Hour
	client := newClient()
	defer client.CloseIdleConnections()
	r := boot(t, cfg)
	// A CPU profile answers only after the second it samples, so the
	// profile requests of the first run go out now, beside the others,
	// and their answers are collected at their entries.
	early := map[*entry]chan exchange{}
	for _, e := range entries {
		if e.restart {
			break
		}
		if strings.HasPrefix(e.target, "/debug/pprof/profile") {
			ch := make(chan exchange, 1)
			go func(e *entry) { ch <- send(client, r.base, e, e.target) }(e)
			early[e] = ch
		}
	}
	var (
		lastTraceID string
		restarted   bool
		before      = map[string]string{} // query bodies before the restart
	)
	for _, e := range entries {
		if e.restart {
			if err := r.stop(); err != nil {
				t.Fatalf("%s:%d: Run returned %v", transcriptPath, e.line, err)
			}
			client.CloseIdleConnections()
			r, restarted = boot(t, cfg), true
			continue
		}
		target := strings.ReplaceAll(e.target, "{trace_id}", lastTraceID)
		var x exchange
		if ch, ok := early[e]; ok {
			x = <-ch
		} else {
			x = send(client, r.base, e, target)
		}
		if x.err != nil {
			t.Fatalf("%s:%d: %v", transcriptPath, e.line, x.err)
		}
		lastTraceID = x.traceID
		if target == "/metrics" && !restarted {
			checkUnmovedMetrics(t, x.raw)
		}
		if strings.Contains(x.body, "\n\n") {
			t.Errorf("%s:%d: the body view has a blank line, which the transcript format cannot hold", transcriptPath, e.line)
		}
		if *update {
			e.status, e.ctype, e.body = x.status, x.ctype, x.body
		} else if x.status != e.status || x.ctype != e.ctype || x.body != e.body {
			t.Errorf("%s:%d: %s %s\n got: %d %s\n%s\nwant: %d %s\n%s",
				transcriptPath, e.line, e.method, e.target, x.status, x.ctype, x.body, e.status, e.ctype, e.body)
		}
		// A clean restart must not change what a data query answers.
		if strings.HasPrefix(target, "/api/v1/query?") || strings.HasPrefix(target, "/api/v1/query_range?") {
			if !restarted {
				before[target] = x.body
			} else if want, ok := before[target]; ok && x.body != want {
				t.Errorf("%s:%d: %s answers differently after the restart:\n got: %s\nwant: %s",
					transcriptPath, e.line, target, x.body, want)
			}
		}
	}
	if err := r.stop(); err != nil {
		t.Fatalf("Run returned %v", err)
	}
	if *update {
		writeTranscript(t, entries)
	}
}
