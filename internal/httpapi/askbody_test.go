package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dio/internal/core"
	"dio/internal/dashboard"
	"dio/internal/feedback"
	"dio/internal/httpapi"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/servecache"
	"dio/internal/testenv"
)

// askOracle is the ask wire shape as encoding/json has always written it.
// It is kept apart from the server's own type, so a body the server writes
// is checked against what reflection encodes for the answer, whatever the
// server does to produce it.
type askOracle struct {
	Status       string               `json:"status"`
	Question     string               `json:"question"`
	Task         string               `json:"task"`
	Metrics      []askOracleMetric    `json:"metrics"`
	Query        string               `json:"query"`
	Answer       string               `json:"answer"`
	ExecError    string               `json:"exec_error,omitempty"`
	Dashboard    *dashboard.Dashboard `json:"dashboard,omitempty"`
	CostCents    float64              `json:"cost_cents"`
	TraceID      string               `json:"trace_id,omitempty"`
	AnalyzedPlan string               `json:"analyzed_plan,omitempty"`
}

type askOracleMetric struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// askOracleBody is json.Encoder's encoding of a's wire form, newline included.
func askOracleBody(t *testing.T, a *core.Answer) []byte {
	t.Helper()
	o := askOracle{
		Status: "success", Question: a.Question, Task: a.Task.String(),
		Query: a.Query, Answer: a.ValueText, Dashboard: a.Dashboard,
		CostCents: a.CostCents, TraceID: a.TraceID, AnalyzedPlan: a.AnalyzedPlan,
	}
	if a.ExecErr != nil {
		o.ExecError = a.ExecErr.Error()
	}
	for _, m := range a.Metrics {
		o.Metrics = append(o.Metrics, askOracleMetric{Name: m.Name, Description: m.Description})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// askBodyServer is a traced server with the answer front whose Compute
// records every answer it returns, so a test knows which answer each
// response must encode.
type askBodyServer struct {
	h     http.Handler
	front *servecache.Front[*core.Answer]

	mu       sync.Mutex
	computed map[string]*core.Answer // the latest answer per question
	hold     *hold                   // the next Compute waits on it
}

// hold stops one computation: it closes entered on entry and returns once
// release is closed.
type hold struct{ entered, release chan struct{} }

func newAskBodyServer(t *testing.T, model string) *askBodyServer {
	t.Helper()
	cat, db, r, err := testenv.Env()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cp, err := core.New(core.Config{Catalog: cat, TSDB: db, Model: llm.MustNew(model), Retriever: r, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cp.Tracer().EnableCapture(obs.NewTraceStore(64, time.Second), 1)
	s := &askBodyServer{computed: map[string]*core.Answer{}}
	s.front = servecache.NewFront(servecache.FrontConfig[*core.Answer]{
		Size: 64, TTL: time.Hour, Version: cat.Version, Head: db.HeadTime,
		Compute: func(ctx context.Context, q string) (*core.Answer, error) {
			s.mu.Lock()
			h := s.hold
			s.hold = nil
			s.mu.Unlock()
			if h != nil {
				close(h.entered)
				<-h.release
			}
			a, err := cp.Ask(ctx, q)
			if err == nil {
				s.mu.Lock()
				s.computed[q] = a
				s.mu.Unlock()
			}
			return a, err
		},
	})
	s.h = httpapi.New(cp, feedback.NewTracker([]string{"alice"}, nil), nil,
		httpapi.WithMetrics(reg), httpapi.WithTracing(cp.Tracer()), httpapi.WithServingLayer(s.front, nil))
	return s
}

func (s *askBodyServer) answer(q string) *core.Answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.computed[q]
}

// ask posts one ask and returns the raw body after checking the status,
// the cache header and the declared length.
func (s *askBodyServer) ask(t *testing.T, req map[string]any, wantCache string) []byte {
	t.Helper()
	body, err := s.try(req, wantCache)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// try is ask for a goroutine other than the test's: it reports instead of
// failing.
func (s *askBodyServer) try(req map[string]any, wantCache string) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest("POST", "/api/v1/ask", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("ask %s = %d %s", body, w.Code, w.Body)
	}
	if got := w.Header().Get(httpapi.CacheHeader); got != wantCache {
		return nil, fmt.Errorf("ask %s: %s = %q, want %q", body, httpapi.CacheHeader, got, wantCache)
	}
	if cl := w.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(w.Body.Len()) {
		return nil, fmt.Errorf("ask %s: Content-Length %s for a %d-byte body", body, cl, w.Body.Len())
	}
	return w.Body.Bytes(), nil
}

func checkAskBody(t *testing.T, what string, got []byte, a *core.Answer) {
	t.Helper()
	if a == nil {
		t.Fatalf("%s: no answer was computed", what)
	}
	if want := askOracleBody(t, a); !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from encoding/json's\n got %s\nwant %s", what, got, want)
	}
}

// TestAskBodyEncoding: every ask body, whether computed, served from the
// answer cache, shared with a coalesced follower or computed past the
// cache, is byte for byte encoding/json's encoding of the answer's wire
// form plus a newline, and repeated hits write identical bytes. The
// answers cover a dashboard, an execution error, an analyzed plan, a
// trace ID and a question that needs HTML and line-separator escapes.
func TestAskBodyEncoding(t *testing.T) {
	s := newAskBodyServer(t, "gpt-4")
	const q = "How many PDU sessions are currently active?"

	miss := s.ask(t, map[string]any{"question": q}, "miss")
	first := s.answer(q)
	if first == nil || first.Dashboard == nil || first.TraceID == "" {
		t.Fatalf("want an answer with a dashboard and a trace ID, got %+v", first)
	}
	checkAskBody(t, "miss", miss, first)
	hit1 := s.ask(t, map[string]any{"question": q}, "hit")
	hit2 := s.ask(t, map[string]any{"question": q}, "hit")
	checkAskBody(t, "hit", hit1, first)
	if !bytes.Equal(hit1, hit2) {
		t.Fatalf("two hits differ:\n%s\n%s", hit1, hit2)
	}

	fresh := s.ask(t, map[string]any{"question": q, "nocache": true}, "bypass")
	if s.answer(q) == first {
		t.Fatal("nocache ask did not compute")
	}
	checkAskBody(t, "nocache", fresh, s.answer(q))
	checkAskBody(t, "hit after nocache", s.ask(t, map[string]any{"question": q}, "hit"), first)

	analyzed := s.ask(t, map[string]any{"question": q, "analyze": true}, "bypass")
	if s.answer(q).AnalyzedPlan == "" {
		t.Fatal("analyze ask has no analyzed plan")
	}
	checkAskBody(t, "analyze", analyzed, s.answer(q))
	checkAskBody(t, "explain", s.ask(t, map[string]any{"question": q, "explain": true}, "bypass"), s.answer(q))

	const odd = "How many <PDU> sessions & registrations are active\u2028right now?"
	checkAskBody(t, "escaped miss", s.ask(t, map[string]any{"question": odd}, "miss"), s.answer(odd))
	checkAskBody(t, "escaped hit", s.ask(t, map[string]any{"question": odd}, "hit"), s.answer(odd))

	t.Run("coalesced", func(t *testing.T) {
		// The follower must reach the front while the leader computes; a
		// follower that arrives after the leader finished is a plain hit,
		// so the pair is retried on a fresh question until one coalesces.
		for attempt := 0; attempt < 20; attempt++ {
			cq := "What is the NAS authentication success rate for attempt " + strconv.Itoa(attempt) + "?"
			h := &hold{entered: make(chan struct{}), release: make(chan struct{})}
			s.mu.Lock()
			s.hold = h
			s.mu.Unlock()
			before := s.front.Stats().Coalesced
			var (
				wg     sync.WaitGroup
				bodies [2][]byte
				errs   [2]error
			)
			for i, want := range []string{"miss", "hit"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					bodies[i], errs[i] = s.try(map[string]any{"question": cq}, want)
				}()
				if i == 0 {
					<-h.entered
				}
			}
			// The sleep only widens the window in which the follower joins
			// the flight; a follower that misses it is retried.
			time.Sleep(20 * time.Millisecond)
			close(h.release)
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			a := s.answer(cq)
			checkAskBody(t, "leader", bodies[0], a)
			checkAskBody(t, "follower", bodies[1], a)
			if s.front.Stats().Coalesced > before {
				return
			}
		}
		t.Fatal("no follower coalesced in 20 attempts")
	})

	t.Run("exec_error", func(t *testing.T) {
		s := newAskBodyServer(t, "text-curie-001")
		const q = "asdf qwerty zxcv"
		miss := s.ask(t, map[string]any{"question": q}, "miss")
		a := s.answer(q)
		if a == nil || a.ExecErr == nil {
			t.Fatalf("want an answer with an execution error, got %+v", a)
		}
		checkAskBody(t, "exec_error miss", miss, a)
		hit1 := s.ask(t, map[string]any{"question": q}, "hit")
		checkAskBody(t, "exec_error hit", hit1, a)
		if hit2 := s.ask(t, map[string]any{"question": q}, "hit"); !bytes.Equal(hit1, hit2) {
			t.Fatalf("two hits differ:\n%s\n%s", hit1, hit2)
		}
	})
}

// nanFront answers every ask with an answer encoding/json cannot encode.
type nanFront struct{}

func (nanFront) Do(context.Context, string, bool) (*core.Answer, servecache.Status, error) {
	return &core.Answer{Question: "q", CostCents: math.NaN()}, servecache.StatusMiss, nil
}

// TestAskEncodeFailure: an answer that does not encode is a logged 500
// with the error envelope, not a 200 with a truncated body.
func TestAskEncodeFailure(t *testing.T) {
	var log bytes.Buffer
	h := httpapi.New(nil, nil, slog.New(slog.NewTextHandler(&log, nil)), httpapi.WithServingLayer(nanFront{}, nil))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/v1/ask", strings.NewReader(`{"question":"q"}`)))
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), `"error":"encoding the answer: json: unsupported value: NaN"`) {
		t.Fatalf("ask = %d %s, want a 500 naming the encode error", w.Code, w.Body)
	}
	if !strings.Contains(log.String(), `msg="ask encoding failed"`) {
		t.Fatalf("the encode failure was not logged:\n%s", log.String())
	}
}
