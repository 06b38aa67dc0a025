// Package httpapi exposes a hidden database's keyword-search interface
// over HTTP and provides a client that implements deepweb.Searcher against
// such an endpoint. It makes the reproduction's "restricted interface"
// literal: the crawler side sees nothing but an HTTP API with a top-k
// limit and a request quota, exactly like the Yelp/Google endpoints that
// motivate the paper (§1). A deepweb.Bucket in front of the server
// simulates per-day API quotas.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// searchResponse is the JSON wire format of a search result.
type searchResponse struct {
	K       int          `json:"k"`
	Records []wireRecord `json:"records"`
}

type wireRecord struct {
	ID     int      `json:"id"`
	Values []string `json:"values"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Server serves a Searcher over HTTP.
//
//	GET /search?q=thai+noodle   → {"k":50,"records":[{"id":7,"values":[…]}]}
//	GET /healthz                → {"status":"ok"}
//	GET /stats                  → {"searches":123,"rate_limited":4,"errors":1}
type Server struct {
	searcher deepweb.Searcher
	tk       *tokenize.Tokenizer
	limiter  *deepweb.Bucket // nil = unlimited
	obs      *obs.Obs        // nil = uninstrumented

	mu          sync.Mutex
	searches    int
	rateLimited int
	errors      int
}

// NewServer wraps searcher. A nil limiter disables rate limiting.
func NewServer(searcher deepweb.Searcher, tk *tokenize.Tokenizer, limiter *deepweb.Bucket) *Server {
	return &Server{searcher: searcher, tk: tk, limiter: limiter}
}

// SetObs attaches an observability sink: live query counters, per-request
// search latency, rate-limit denials. cmd/hiddenserver publishes the
// sink's snapshot at /debug/vars. Call before serving.
func (s *Server) SetObs(o *obs.Obs) { s.obs = o }

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		resp := map[string]int{
			"searches":     s.searches,
			"rate_limited": s.rateLimited,
			"errors":       s.errors,
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

func (s *Server) count(field *int) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	if s.limiter != nil && !s.limiter.Allow() {
		s.count(&s.rateLimited)
		if s.obs != nil {
			s.obs.RateLimitDenied(r.URL.Query().Get("q"), 0)
		}
		// Real quota meters tell the client when to come back; ours
		// refills continuously, so one second is always enough to earn a
		// token at any sane refill rate.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{"rate limit exceeded"})
		return
	}
	raw := r.URL.Query().Get("q")
	q := deepweb.Query(s.tk.NormalizeQuery(raw))
	if len(q) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"empty query"})
		return
	}
	var start time.Time
	if s.obs != nil {
		start = time.Now()
	}
	recs, err := s.searcher.Search(q)
	if s.obs != nil {
		s.obs.SearchDone(time.Since(start), deepweb.SearchFailed(err))
	}
	if err != nil {
		// Map injected faults to the HTTP status a real interface would
		// produce; a truncated page is served as a plain 200 — real APIs
		// cut result lists silently, so the wire client cannot tell.
		var te *deepweb.TruncatedError
		switch {
		case errors.As(err, &te):
			// fall through to the 200 path with the partial records
		case errors.Is(err, deepweb.ErrRateLimited):
			s.count(&s.rateLimited)
			if s.obs != nil {
				s.obs.RateLimitDenied(q.Key(), 0)
			}
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{"rate limit exceeded"})
			return
		case errors.Is(err, deepweb.ErrInjectedTimeout):
			s.count(&s.errors)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{err.Error()})
			return
		case errors.Is(err, deepweb.ErrUnavailable):
			s.count(&s.errors)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
			return
		default:
			s.count(&s.errors)
			writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
			return
		}
	}
	s.count(&s.searches)
	if s.obs != nil {
		s.obs.SearchServed(q.Key(), len(recs), len(recs) < s.searcher.K())
	}
	resp := searchResponse{K: s.searcher.K(), Records: make([]wireRecord, len(recs))}
	for i, rec := range recs {
		resp.Records[i] = wireRecord{ID: rec.ID, Values: rec.Values}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Client implements deepweb.Searcher against a Server endpoint.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
	// Retries re-issues a request after a 429, waiting RetryDelay
	// between attempts (real crawlers must respect quotas; the default
	// of 0 surfaces the 429 as an error).
	Retries    int
	RetryDelay time.Duration
	// Context cancels in-flight requests; nil means background.
	Context context.Context

	mu sync.Mutex
	k  int // cached from the first response
}

// Search implements deepweb.Searcher.
func (c *Client) Search(q deepweb.Query) ([]*relational.Record, error) {
	return c.SearchCtx(nil, q)
}

// SearchCtx implements deepweb.ContextSearcher: ctx bounds every request of
// the retry loop (a crawl deadline or per-query timeout), overriding the
// client-wide Context when non-nil.
func (c *Client) SearchCtx(ctx context.Context, q deepweb.Query) ([]*relational.Record, error) {
	if err := deepweb.Validate(q); err != nil {
		return nil, err
	}
	u := strings.TrimRight(c.BaseURL, "/") + "/search?q=" + url.QueryEscape(q.String())
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		recs, retryable, err := c.doSearch(ctx, u)
		if err == nil {
			return recs, nil
		}
		lastErr = err
		if !retryable {
			break
		}
		if attempt < c.Retries {
			time.Sleep(c.RetryDelay)
		}
	}
	return nil, lastErr
}

func (c *Client) doSearch(ctx context.Context, u string) (recs []*relational.Record, retryable bool, err error) {
	if ctx == nil {
		ctx = c.Context
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("httpapi: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, false, fmt.Errorf("httpapi: reading response: %w", err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Wrapping ErrRateLimited lets budget accounting upstream refund
		// the unit (deepweb.Charged): the server never ran the query. A
		// Retry-After header (integer seconds) becomes a RetryAfterError so
		// backoff layers wait exactly as long as the server asked.
		rlErr := fmt.Errorf("httpapi: rate limited (429): %w", deepweb.ErrRateLimited)
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			return nil, true, &deepweb.RetryAfterError{After: time.Duration(secs) * time.Second, Err: rlErr}
		}
		return nil, true, rlErr
	}
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		_ = json.Unmarshal(body, &er)
		// 5xx is transient (the backend may recover); 4xx is not.
		return nil, resp.StatusCode >= 500, fmt.Errorf("httpapi: status %d: %s", resp.StatusCode, er.Error)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, false, fmt.Errorf("httpapi: decoding response: %w", err)
	}
	c.mu.Lock()
	c.k = sr.K
	c.mu.Unlock()
	out := make([]*relational.Record, len(sr.Records))
	for i, wr := range sr.Records {
		out[i] = &relational.Record{ID: wr.ID, Values: wr.Values}
	}
	return out, false, nil
}

// K implements deepweb.Searcher. Before any successful Search it probes the
// endpoint with a throwaway request-free default of 0; callers should issue
// Probe first when they need K up front.
func (c *Client) K() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k
}

// Probe fetches the interface's k by issuing one cheap query ("a" is a
// stop word server-side, so use a digit that may or may not match).
func (c *Client) Probe(q deepweb.Query) error {
	_, err := c.Search(q)
	return err
}
