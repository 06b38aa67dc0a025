package httpapi

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/fixture"
	"smartcrawl/internal/match"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/tokenize"
)

func newTestServer(t *testing.T, limiter *deepweb.Bucket) (*httptest.Server, *fixture.Universe) {
	t.Helper()
	u := fixture.New()
	srv := NewServer(u.DB, u.Tokenizer, limiter)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, u
}

func TestSearchOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	c := &Client{BaseURL: ts.URL}
	recs, err := c.Search(deepweb.Query{"ramen", "saigon"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Value(0) != "Saigon Ramen" {
		t.Fatalf("recs = %v", recs)
	}
	if c.K() != 2 {
		t.Fatalf("K = %d after first search", c.K())
	}
}

func TestServerNormalizesQuery(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	// Raw (unsorted, mixed-case) query text must be normalized
	// server-side; the Go client validates before sending, so hit the
	// endpoint directly.
	resp, err := ts.Client().Get(ts.URL + "/search?q=Saigon+RAMEN+saigon")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestServerRejectsEmptyQuery(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/search?q=")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Post(ts.URL+"/search", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestRateLimiting(t *testing.T) {
	// 3 tokens, no refill: the 4th request must 429.
	ts, _ := newTestServer(t, deepweb.NewBucket(3, 0))
	c := &Client{BaseURL: ts.URL}
	for i := 0; i < 3; i++ {
		if _, err := c.Search(deepweb.Query{"thai"}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if _, err := c.Search(deepweb.Query{"thai"}); err == nil {
		t.Fatal("4th request should be rate limited")
	} else if !strings.Contains(err.Error(), "429") {
		t.Fatalf("err = %v, want 429", err)
	}
}

func TestClientRetriesAfter429(t *testing.T) {
	bucket := deepweb.NewBucket(1, 20) // refills fast
	ts, _ := newTestServer(t, bucket)
	c := &Client{BaseURL: ts.URL, Retries: 3, RetryDelay: 100 * time.Millisecond}
	if _, err := c.Search(deepweb.Query{"thai"}); err != nil {
		t.Fatal(err)
	}
	// Bucket empty now; retry should succeed after refill.
	if _, err := c.Search(deepweb.Query{"thai"}); err != nil {
		t.Fatalf("retried search failed: %v", err)
	}
}

func TestClientValidatesQueries(t *testing.T) {
	c := &Client{BaseURL: "http://example.invalid"}
	if _, err := c.Search(deepweb.Query{"NOT-LOWER"}); err == nil {
		t.Fatal("client must validate before sending")
	}
}

// TestCrawlThroughHTTP runs a full SMARTCRAWL against the HTTP interface —
// the crawler cannot tell it apart from the in-memory database.
func TestCrawlThroughHTTP(t *testing.T) {
	ts, u := newTestServer(t, nil)
	tk := tokenize.New()
	client := &Client{BaseURL: ts.URL}
	// Prime K.
	if err := client.Probe(deepweb.Query{"thai"}); err != nil {
		t.Fatal(err)
	}
	env := &crawler.Env{
		Local:     u.Local,
		Searcher:  client,
		Tokenizer: tk,
		Matcher:   match.NewExactOn(tk, nil, []int{0}),
	}
	smp := &sample.Sample{Records: u.Sample.Records, Theta: u.Theta}
	c, err := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount != 4 {
		t.Fatalf("HTTP crawl covered %d of 4", res.CoveredCount)
	}
}

// faultyTestServer serves the fixture database through a Faulty wrapper,
// the same wiring cmd/hiddenserver uses for -fault-profile.
func faultyTestServer(t *testing.T, p deepweb.FaultProfile) *httptest.Server {
	t.Helper()
	u := fixture.New()
	srv := NewServer(deepweb.NewFaulty(u.DB, p), u.Tokenizer, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestServerMapsInjectedFaults pins the HTTP status mapping for each
// injected fault class: truncation is a silent 200 partial page (the
// client cannot detect it — that is the point), 429 for rate-limit bursts,
// 504 for timeouts, 503 for unavailability.
func TestServerMapsInjectedFaults(t *testing.T) {
	status := func(ts *httptest.Server) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/search?q=thai")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	t.Run("truncate serves partial page as 200", func(t *testing.T) {
		ts := faultyTestServer(t, deepweb.FaultProfile{Seed: 1, Truncate: 1, TruncateFrac: 0.5})
		c := &Client{BaseURL: ts.URL}
		// The fixture's "thai" matches 2 records (k=2); the cut page has 1.
		recs, err := c.Search(deepweb.Query{"thai"})
		if err != nil {
			t.Fatalf("a silently truncated page must look like success: %v", err)
		}
		if len(recs) != 1 {
			t.Fatalf("got %d records, want the truncated 1", len(recs))
		}
	})
	t.Run("rate-limit burst maps to 429", func(t *testing.T) {
		ts := faultyTestServer(t, deepweb.FaultProfile{Seed: 1, RateLimit: 1, BurstLen: 1})
		if got := status(ts); got != 429 {
			t.Fatalf("status %d, want 429", got)
		}
		// The Go client classifies the 429 as deepweb.ErrRateLimited so the
		// crawl loop's refund accounting recognizes the uncharged denial.
		if _, err := (&Client{BaseURL: ts.URL}).Search(deepweb.Query{"house"}); !errors.Is(err, deepweb.ErrRateLimited) {
			t.Fatalf("client err = %v, want ErrRateLimited", err)
		}
	})
	t.Run("timeout maps to 504", func(t *testing.T) {
		ts := faultyTestServer(t, deepweb.FaultProfile{Seed: 1, Timeout: 1})
		if got := status(ts); got != 504 {
			t.Fatalf("status %d, want 504", got)
		}
	})
	t.Run("unavailable maps to 503", func(t *testing.T) {
		ts := faultyTestServer(t, deepweb.FaultProfile{Seed: 1, Unavailable: 1})
		if got := status(ts); got != 503 {
			t.Fatalf("status %d, want 503", got)
		}
	})
	t.Run("client retries through a transient outage", func(t *testing.T) {
		// FailAttempts=2: the first two requests 504, the third succeeds —
		// within the client's retry budget.
		ts := faultyTestServer(t, deepweb.FaultProfile{Seed: 1, Timeout: 1, FailAttempts: 2})
		c := &Client{BaseURL: ts.URL, Retries: 2, RetryDelay: time.Millisecond}
		recs, err := c.Search(deepweb.Query{"thai"})
		if err != nil {
			t.Fatalf("retries should outlast the outage: %v", err)
		}
		if len(recs) != 2 {
			t.Fatalf("got %d records after recovery, want 2", len(recs))
		}
	})
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, deepweb.NewBucket(2, 0))
	c := &Client{BaseURL: ts.URL}
	_, _ = c.Search(deepweb.Query{"thai"})
	_, _ = c.Search(deepweb.Query{"house"})
	_, _ = c.Search(deepweb.Query{"ramen"}) // rate limited

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["searches"] != 2 || stats["rate_limited"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}
