package dio

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"regexp"
	"testing"
	"time"

	"dio/internal/baselines"
	"dio/internal/httpapi"
	"dio/internal/server"
)

// servedCopilot is the copilot dio-server serves, asked over loopback
// HTTP: a QuerySystem whose query and cost come from POST /api/v1/ask.
// It keeps every response body in ask order.
type servedCopilot struct {
	client  *http.Client
	base    string
	nocache bool
	bodies  [][]byte
	cache   []string // each response's X-DIO-Cache
}

func (s *servedCopilot) Name() string { return "DIO copilot (served)" }

func (s *servedCopilot) GenerateQuery(ctx context.Context, question string) (baselines.QueryResult, error) {
	req, err := json.Marshal(map[string]any{"question": question, "nocache": s.nocache})
	if err != nil {
		return baselines.QueryResult{}, err
	}
	resp, err := s.client.Post(s.base+"/api/v1/ask", "application/json", bytes.NewReader(req))
	if err != nil {
		return baselines.QueryResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return baselines.QueryResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return baselines.QueryResult{}, fmt.Errorf("ask %q: %s: %s", question, resp.Status, body)
	}
	s.bodies = append(s.bodies, body)
	s.cache = append(s.cache, resp.Header.Get(httpapi.CacheHeader))
	var ans struct {
		Query     string  `json:"query"`
		CostCents float64 `json:"cost_cents"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return baselines.QueryResult{}, err
	}
	return baselines.QueryResult{Query: ans.Query, CostCents: ans.CostCents}, nil
}

// traceIDField is the one part of an ask body that differs between a
// computation and a cache hit on it.
var traceIDField = regexp.MustCompile(`"trace_id":"[^"]*"`)

// TestPaperServed scores what dio-server serves: server.Run on loopback
// over the 2-hour seed-42 trace with self-scrape off, asked the 200
// seed-7 questions with nocache, each returned query executed and scored
// by the evaluator TestPaperHeadlinePinned uses. It pins the served EX
// and mean cost. They need not equal that test's pin: server.Run adds
// the dio_* self-metric documents to the catalog whether or not
// self-scrape runs, so the served retriever indexes more documents.
//
// Then the questions go through the answer cache twice: the first pass
// computes and stores, the second must be served from the cache. Every
// body of both must equal its uncached body apart from the trace id.
func TestPaperServed(t *testing.T) {
	e := env(t)
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	cfg := server.DefaultConfig()
	cfg.SelfScrape = false
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- server.Run(ctx, cfg, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run returned %v", err)
		}
	})

	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	ask := func(nocache bool) *servedCopilot {
		return &servedCopilot{client: client, base: "http://" + ln.Addr().String(), nocache: nocache}
	}
	uncached := ask(true)
	r, err := e.eval.Evaluate(context.Background(), uncached, e.items)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 200 || r.EX() != 65 {
		t.Errorf("served EX = %g%% over %d questions, want 65%% over 200", r.EX(), r.Total)
	}
	if got := fmt.Sprintf("%.4f", r.MeanCostCents); got != "8.6346" {
		t.Errorf("served mean cost = %s ¢/query, want 8.6346", got)
	}

	for pass, want := range []string{"", "hit"} {
		cached := ask(false)
		for _, it := range e.items {
			if _, err := cached.GenerateQuery(context.Background(), it.Question); err != nil {
				t.Fatal(err)
			}
		}
		for i, body := range cached.bodies {
			if want != "" && cached.cache[i] != want {
				t.Errorf("pass %d, question %d: %s %q, want %q", pass+1, i, httpapi.CacheHeader, cached.cache[i], want)
			}
			got, ref := traceIDField.ReplaceAll(body, nil), traceIDField.ReplaceAll(uncached.bodies[i], nil)
			if !bytes.Equal(got, ref) {
				t.Errorf("pass %d, question %d: cached body differs from the uncached one\n got %s\nwant %s", pass+1, i, got, ref)
			}
		}
	}
}
