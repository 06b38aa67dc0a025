// Package deepweb defines the restricted access interface through which all
// crawlers see a hidden database (§2, Definition 2): a keyword query goes
// in, at most k records come out, and nothing else about H is observable.
// Around that interface it layers everything a production crawl needs to
// survive a real web API: budget accounting that charges every issued
// query and refunds never-executed ones (Counting, mirroring the per-day
// quotas — Yelp: 25,000 requests/day, Google Maps: 2,500/day — that
// motivate the paper's budget b), memoization (Cache), a worker-pool
// dispatcher with deterministic in-order outcomes (Dispatcher), retry with
// backoff (Retrying), client-side token-bucket pacing (Limited), a
// closed/open/half-open circuit breaker (Breaker, Guarded), and a
// deterministic seedable fault injector (Faulty) that misbehaves exactly
// like the adversarial interfaces of §2/§6 — timeouts, 5xx bursts, 429
// storms, truncated and stale result pages — so resilience is testable.
package deepweb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"smartcrawl/internal/relational"
)

// Query is a conjunctive keyword query: a set of normalized (lowercase,
// deduplicated) keywords. Order is not semantically meaningful, but
// canonical (sorted) order is used for map keys.
type Query []string

// Key returns a canonical string form usable as a map key. Callers must
// pass normalized queries (see tokenize.NormalizeQuery).
func (q Query) Key() string { return strings.Join(q, " ") }

// String renders the query as the user would type it.
func (q Query) String() string { return strings.Join(q, " ") }

// Searcher is the only capability a crawler has against a hidden database.
// Search returns the top-k records matching q under the database's unknown
// ranking function; it must be deterministic (§2: repeated execution returns
// the same result). Implementations must NOT reveal |q(H)| or whether the
// query overflowed — crawlers infer solidity from len(result) < K()
// exactly as a client of a real web API would.
type Searcher interface {
	Search(q Query) ([]*relational.Record, error)
	// K returns the interface's top-k result limit.
	K() int
}

// ErrBudgetExhausted is returned by Counting.Search once the configured
// query budget has been spent.
var ErrBudgetExhausted = errors.New("deepweb: query budget exhausted")

// ContextSearcher is implemented by searchers that can honor a request
// context — deadline budgets and per-query timeouts propagate through
// the wrapper stack (Counting, Limited, Retrying, Guarded, Faulty,
// httpapi.Client) via this interface. Wrappers forward the context with
// SearchWith, so a stack with a context-blind layer in the middle simply
// degrades to Search below that point.
type ContextSearcher interface {
	Searcher
	SearchCtx(ctx context.Context, q Query) ([]*relational.Record, error)
}

// SearchWith issues q through s, using SearchCtx when s supports it and
// ctx is non-nil. This is how every wrapper forwards its context without
// caring what sits below it.
func SearchWith(ctx context.Context, s Searcher, q Query) ([]*relational.Record, error) {
	if ctx != nil {
		if cs, ok := s.(ContextSearcher); ok {
			return cs.SearchCtx(ctx, q)
		}
	}
	return s.Search(q)
}

// RetryAfterError wraps a retryable failure with a server-provided
// backoff hint (an HTTP 429's Retry-After header, surfaced by
// httpapi.Client). Retrying prefers the hint over its own backoff
// schedule; everything else unwraps through it (Charged still sees the
// underlying ErrRateLimited).
type RetryAfterError struct {
	After time.Duration
	Err   error
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.After)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RetryAfterError) Unwrap() error { return e.Err }

// Budget is a shared query-quota meter. A single-interface crawl owns one
// implicitly through NewCounting; a federated crawl creates one Budget and
// attaches a Counting per interface to it (NewCountingOn), so every
// interface charges the SAME global allowance — the paper's b is a total
// across sources, not per source. A limit of zero or negative means
// unlimited. Safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	limit  int
	issued int
}

// NewBudget returns a meter with a limit of b queries (b <= 0 = unlimited).
func NewBudget(b int) *Budget { return &Budget{limit: b} }

// Charge consumes one unit, reporting false (and consuming nothing) once
// the limit is spent.
func (b *Budget) Charge() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit > 0 && b.issued >= b.limit {
		return false
	}
	b.issued++
	return true
}

// Refund returns one previously charged unit (floor at zero).
func (b *Budget) Refund() {
	b.mu.Lock()
	if b.issued > 0 {
		b.issued--
	}
	b.mu.Unlock()
}

// Issued returns the number of units charged so far.
func (b *Budget) Issued() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.issued
}

// Remaining returns how many units are left, or -1 if unlimited.
func (b *Budget) Remaining() int {
	if b.limit <= 0 {
		return -1
	}
	r := b.limit - b.Issued()
	if r < 0 {
		r = 0
	}
	return r
}

// Exhausted reports whether the limit has been fully spent.
func (b *Budget) Exhausted() bool {
	return b.limit > 0 && b.Issued() >= b.limit
}

// Counting wraps a Searcher with budget accounting. Every Search call —
// successful or not — consumes one unit, matching how web APIs meter
// requests. The meter may be private (NewCounting) or shared across several
// Counting wrappers (NewCountingOn), which is how a federated crawl spends
// one global budget through n interfaces. Counting is safe for concurrent
// use (batch crawling issues queries from multiple goroutines); the wrapped
// Searcher must be too.
type Counting struct {
	S Searcher
	B *Budget
}

// NewCounting wraps s with its own budget of b queries (b <= 0 = unlimited).
func NewCounting(s Searcher, b int) *Counting {
	return &Counting{S: s, B: NewBudget(b)}
}

// NewCountingOn wraps s charging against the shared meter b.
func NewCountingOn(s Searcher, b *Budget) *Counting {
	return &Counting{S: s, B: b}
}

// Search issues q through the wrapped searcher, charging one query.
func (c *Counting) Search(q Query) ([]*relational.Record, error) {
	return c.SearchCtx(nil, q)
}

// SearchCtx is Search with a request context forwarded down the stack.
func (c *Counting) SearchCtx(ctx context.Context, q Query) ([]*relational.Record, error) {
	if !c.B.Charge() {
		return nil, ErrBudgetExhausted
	}
	return SearchWith(ctx, c.S, q)
}

// K returns the wrapped interface's result limit.
func (c *Counting) K() int { return c.S.K() }

// Refund returns one previously charged unit. The graceful-degradation
// path calls it when it gives up on a query whose failure the interface
// never billed — a client-side token-bucket denial, an open circuit, a
// 429 rejection, a context cancellation before dispatch (see Charged).
// A query that never executed must not consume budget.
func (c *Counting) Refund() { c.B.Refund() }

// Issued returns the number of queries charged so far on the meter.
func (c *Counting) Issued() int { return c.B.Issued() }

// Remaining returns how many queries are left, or -1 if unlimited.
func (c *Counting) Remaining() int { return c.B.Remaining() }

// Exhausted reports whether the budget has been fully spent.
func (c *Counting) Exhausted() bool { return c.B.Exhausted() }

// Cache memoizes Search results by query key. Query processing is
// deterministic (§2), so re-issuing a query wastes budget for no new
// information. Strategies that may legitimately re-select a query
// (QSel-Bound keeps selected queries in the pool) pay budget per the
// algorithm; wrap their searcher in Cache to study the same selection with
// re-issues de-duplicated. Safe for concurrent use (batch crawling); a
// cache miss may issue the same query more than once under races, which
// only costs budget, never correctness (results are deterministic).
type Cache struct {
	S Searcher

	mu      sync.Mutex
	results map[string][]*relational.Record
	hits    int
	misses  int
}

// NewCache wraps s with memoization.
func NewCache(s Searcher) *Cache {
	return &Cache{S: s, results: make(map[string][]*relational.Record)}
}

// Search returns the cached result if q was issued before, otherwise
// forwards to the wrapped searcher.
func (c *Cache) Search(q Query) ([]*relational.Record, error) {
	return c.SearchCtx(nil, q)
}

// SearchCtx is Search with a request context forwarded on cache misses.
func (c *Cache) SearchCtx(ctx context.Context, q Query) ([]*relational.Record, error) {
	key := q.Key()
	c.mu.Lock()
	if r, ok := c.results[key]; ok {
		c.hits++
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()
	r, err := SearchWith(ctx, c.S, q)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.misses++
	c.results[key] = r
	c.mu.Unlock()
	return r, nil
}

// Stats returns cache hits and misses so far.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// K returns the wrapped interface's result limit.
func (c *Cache) K() int { return c.S.K() }

// Validate checks that q is well-formed for issuing: non-empty, normalized
// (sorted, unique, lowercase). The hidden-database simulator rejects
// malformed queries loudly instead of silently returning empty results.
func Validate(q Query) error {
	if len(q) == 0 {
		return errors.New("deepweb: empty query")
	}
	for i, w := range q {
		if w == "" {
			return errors.New("deepweb: empty keyword")
		}
		if w != strings.ToLower(w) {
			return fmt.Errorf("deepweb: keyword %q not lowercase", w)
		}
		if i > 0 && q[i-1] >= w {
			return fmt.Errorf("deepweb: query not sorted/unique at %q", w)
		}
	}
	return nil
}
