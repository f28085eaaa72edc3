package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// cacheHeader is httpapi.CacheHeader, spelled out because the client side
// of the benchmark speaks only HTTP to the server.
const cacheHeader = "X-DIO-Cache"

// classStats is what one closed-loop client saw.
type classStats struct {
	name      string
	next      int      // index of the class's next request
	samples   []sample // operations started inside a measured window
	attempted int      // warm-up included
	failed    int
	reqBytes  int64 // measured windows only, as samples
	respBytes int64
	firstErr  error
}

// driver sends one workload's requests to a server and checks every
// response. The measured phase is cut into windows; between two windows the
// server idles while the harness does other work, so that the samples of
// one run span more of the host's slow and fast phases than their total
// length would.
type driver struct {
	w     *workload
	e     *expectations
	srv   *server
	probe *http.Client
	acked atomic.Int64 // pushes acknowledged so far
	m     measured
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do sends r and reads the whole response into buf. The returned duration
// runs from just before the request is written to the last byte of the
// body; checking the response is not part of it.
func (d *driver) do(client *http.Client, buf *bytes.Buffer, r request) (time.Duration, *http.Response, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, d.srv.base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	buf.Reset()
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	_, err = buf.ReadFrom(resp.Body)
	took := time.Since(start)
	resp.Body.Close()
	return took, resp, err
}

// askBody and the types below are the response fields the checks read.
type askBody struct {
	Status string `json:"status"`
	Query  string `json:"query"`
	Answer string `json:"answer"`
}

type rangeBody struct {
	Status string `json:"status"`
	Data   struct {
		ResultType string `json:"resultType"`
		Result     []struct {
			Values []json.RawMessage `json:"values"`
		} `json:"result"`
	} `json:"data"`
}

type writeBody struct {
	Status   string `json:"status"`
	Appended int    `json:"appended"`
}

// check compares a response with what the lab computed. wantCache is the
// X-DIO-Cache value an ask must carry, "" for any.
func check(e *expectations, r request, status int, cache, wantCache string, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", r.method, r.path, status, bytes.TrimSpace(body))
	}
	switch r.kind {
	case opAsk:
		var got askBody
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("ask response: %w", err)
		}
		want := e.asks[r.key]
		if got.Status != "success" || got.Query != want.query || got.Answer != want.answer {
			return fmt.Errorf("ask %s: got status %q query %q answer %q, want query %q answer %q",
				r.body, got.Status, got.Query, got.Answer, want.query, want.answer)
		}
		if wantCache != "" && cache != wantCache {
			return fmt.Errorf("ask %s: %s is %q, want %q", r.body, cacheHeader, cache, wantCache)
		}
	case opRange:
		var got rangeBody
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("query_range response: %w", err)
		}
		want := e.ranges[r.key]
		if r.wantSteps > 0 {
			want.points = want.series * r.wantSteps
		}
		points := 0
		for _, s := range got.Data.Result {
			points += len(s.Values)
		}
		if got.Status != "success" || got.Data.ResultType != "matrix" || len(got.Data.Result) != want.series || points != want.points {
			return fmt.Errorf("query_range %q: got status %q, %d series, %d points, want %d series, %d points",
				r.query, got.Status, len(got.Data.Result), points, want.series, want.points)
		}
	case opPush:
		var got writeBody
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("write response: %w", err)
		}
		if got.Status != "success" || got.Appended != r.wantAppended {
			return fmt.Errorf("push: got status %q appended %d, want %d", got.Status, got.Appended, r.wantAppended)
		}
	}
	return nil
}

// runClass drives one closed loop from now until deadline, continuing the
// class's request sequence. Operations that start at or after t0 are
// measured and fall into the first or second segment of window; earlier
// ones warm the server up, and are checked all the same.
func (d *driver) runClass(c opClass, window int, t0, deadline time.Time, st *classStats) {
	client := newClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	half := deadline.Sub(t0) / segmentsPerWindow
	for ; time.Now().Before(deadline); st.next++ {
		r := c.next(st.next, d.acked.Load())
		started := time.Now()
		took, resp, err := d.do(client, &buf, r)
		if err == nil {
			err = check(d.e, r, resp.StatusCode, resp.Header.Get(cacheHeader), d.w.wantCache, buf.Bytes())
		}
		st.attempted++
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			time.Sleep(10 * time.Millisecond) // a dead server must not spin the loop
		} else {
			if r.kind == opPush {
				d.acked.Add(1)
			}
			if !started.Before(t0) {
				seg := min(int(started.Add(took).Sub(t0)/half), segmentsPerWindow-1)
				st.samples = append(st.samples, sample{seg: window*segmentsPerWindow + seg, durMS: float64(took) / 1e6})
				st.reqBytes += int64(len(r.body))
				st.respBytes += int64(buf.Len())
			}
		}
		if c.think > 0 {
			time.Sleep(c.think)
		}
	}
}

// measured is the measured phase against a live server: all its windows.
type measured struct {
	classes []classStats
	segment time.Duration // length of one segment
	cpuS    float64       // server CPU spent inside the windows
	rssMB   float64       // server resident-set high-water mark at the end
	before  exposition    // /metrics when the first window opens
	after   exposition    // and when the last one has closed
	acked   int64
}

// newDriver sends the workload's warm-up requests, once and in order.
func newDriver(w *workload, e *expectations, srv *server, window time.Duration) (*driver, error) {
	d := &driver{w: w, e: e, srv: srv, probe: newClient()}
	d.m = measured{classes: make([]classStats, len(w.classes)), segment: window / segmentsPerWindow}
	for i, c := range w.classes {
		d.m.classes[i].name = c.name
	}
	var buf bytes.Buffer
	for _, r := range w.warm {
		_, resp, err := d.do(d.probe, &buf, r)
		if err == nil {
			err = check(e, r, resp.StatusCode, "", "", buf.Bytes())
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, nil
}

// window warms the server up for warm, then measures one window of two
// segments: one goroutine and one connection per operation class, no pause
// between a response and the next request unless the class states one.
func (d *driver) window(idx int, warm time.Duration) error {
	t0 := time.Now().Add(warm)
	deadline := t0.Add(segmentsPerWindow * d.m.segment)
	var wg sync.WaitGroup
	for i, c := range d.w.classes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.runClass(c, idx, t0, deadline, &d.m.classes[i])
		}()
	}
	time.Sleep(time.Until(t0))
	cpu0, err := d.srv.cpuSeconds()
	if err == nil && idx == 0 {
		d.m.before, err = d.srv.scrape(d.probe)
	}
	wg.Wait()
	if err != nil {
		return err
	}
	cpu1, err := d.srv.cpuSeconds()
	if err != nil {
		return err
	}
	d.m.cpuS += cpu1 - cpu0
	return nil
}

// finish reads what is read once, after the last window.
func (d *driver) finish() (*measured, error) {
	defer d.probe.CloseIdleConnections()
	var err error
	if d.m.rssMB, err = d.srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if d.m.after, err = d.srv.scrape(d.probe); err != nil {
		return nil, err
	}
	d.m.acked = d.acked.Load()
	return &d.m, nil
}

// failures sums attempts and failures over the classes and returns the
// first failure seen.
func (m *measured) failures() (attempted, failed int, first error) {
	for _, c := range m.classes {
		attempted += c.attempted
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return attempted, failed, first
}

// ops is how many operations of any class completed in the measured phase.
func (m *measured) ops() int {
	n := 0
	for _, c := range m.classes {
		n += len(c.samples)
	}
	return n
}

// tail returns the 99th percentile and the maximum latency of a class over
// the whole measured phase, in ms.
func (c *classStats) tail() (p99, maxMS float64) {
	durs := make([]float64, len(c.samples))
	for i, s := range c.samples {
		durs[i] = s.durMS
	}
	sort.Float64s(durs)
	if len(durs) == 0 {
		return 0, 0
	}
	return percentile(durs, 99), durs[len(durs)-1]
}

// instantCount runs an instant query that yields one sample and returns
// its value, 0 for an empty result.
func instantCount(client *http.Client, base, query string, at time.Time) (float64, error) {
	q := url.Values{"query": {query}, "time": {strconv.FormatFloat(float64(at.UnixMilli())/1000, 'f', 3, 64)}}
	resp, err := client.Get(base + "/api/v1/query?" + q.Encode())
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var got struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Data   struct {
			Result []struct {
				Value [2]json.RawMessage `json:"value"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return 0, fmt.Errorf("query %q: %w", query, err)
	}
	if got.Status != "success" {
		return 0, fmt.Errorf("query %q: HTTP %d: %s", query, resp.StatusCode, got.Error)
	}
	if len(got.Data.Result) == 0 {
		return 0, nil
	}
	var text string
	if err := json.Unmarshal(got.Data.Result[0].Value[1], &text); err != nil {
		return 0, fmt.Errorf("query %q: %w", query, err)
	}
	return strconv.ParseFloat(text, 64)
}

// durabilityWindow is how many pushes one counting query covers; it keeps
// each query well inside the sandbox's 5M-sample limit.
const durabilityWindow = 500

// readableSamples counts, on a restarted server, the samples of the first
// acked pushes that can be read back.
func readableSamples(base string, acked int64) (int64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var total int64
	for lo := 0; lo < int(acked); lo += durabilityWindow {
		hi := min(lo+durabilityWindow, int(acked))
		// Half a second short of (hi-lo) seconds: the window holds the
		// stamps of pushes lo..hi-1 and no neighbour, whichever end of a
		// range selector the engine treats as open.
		window := time.Duration(hi-lo)*time.Second - 500*time.Millisecond
		query := fmt.Sprintf("sum(count_over_time(%s[%dms]))", writtenMetric, window.Milliseconds())
		n, err := instantCount(client, base, query, pushStamp(hi-1))
		if err != nil {
			return 0, err
		}
		total += int64(n)
	}
	return total, nil
}

// checkDurable checks, on a server restarted after SIGKILL, that every
// sample of the acked acknowledged pushes can be read back.
func checkDurable(base string, acked int64) error {
	if acked == 0 {
		return nil
	}
	got, err := readableSamples(base, acked)
	if err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	if got != acked*pushSeries {
		return fmt.Errorf("durability check: %d samples were acknowledged, %d are readable after SIGKILL and restart", acked*pushSeries, got)
	}
	return nil
}
