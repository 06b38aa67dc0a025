package deepweb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
)

// Retrying wraps a Searcher and re-issues queries that fail transiently —
// network blips, HTTP 5xx, rate-limit waits. Real crawls run for hours
// against flaky web APIs; a single dropped request must not abort a
// budgeted crawl. Budget accounting composes naturally: wrap the Counting
// layer *outside* Retrying to charge once per logical query, or inside it
// to charge per attempt (what quota meters actually do).
type Retrying struct {
	S Searcher
	// Retries is the number of re-attempts after the first failure.
	Retries int
	// IsTransient classifies errors worth retrying; nil retries
	// everything except ErrBudgetExhausted and ErrTruncated (a truncated
	// result already returned its records — re-issuing would discard
	// them for a page that will truncate identically).
	IsTransient func(error) bool
	// Backoff returns the wait before re-attempt i (1-based); nil means
	// no wait. A server-provided Retry-After hint on the previous failure
	// (RetryAfterError) overrides the schedule for that attempt.
	Backoff func(attempt int) time.Duration
	// Sleep is the clock used between attempts; nil means time.Sleep
	// (tests inject a fake).
	Sleep func(time.Duration)
	// Context, when non-nil, aborts retrying: a backoff wait in progress
	// returns as soon as the context is cancelled, and no further attempt
	// is made — Search returns the context's error. Long crawls wire
	// their shutdown signal here so a worker stuck in exponential backoff
	// does not hold the pipeline open. When the context carries a
	// deadline, a backoff that would outlive it is never slept: Search
	// fails fast with context.DeadlineExceeded so retries only ever
	// consume the *remaining* deadline budget.
	Context context.Context
	// Obs, when non-nil, records every re-attempt (with its backoff wait
	// and the error that caused it) into the observability sink.
	Obs *obs.Obs

	// RetriedCalls counts Search calls that needed at least one retry;
	// TotalRetries counts individual re-attempts. Updates are guarded by
	// mu (the dispatcher issues through one shared Retrying from many
	// workers); read them only after concurrent Searches have returned.
	RetriedCalls int
	TotalRetries int

	mu sync.Mutex
}

// Search implements Searcher.
func (r *Retrying) Search(q Query) ([]*relational.Record, error) {
	return r.searchCtx(r.Context, q)
}

// SearchCtx is Search under the given request context; it takes
// precedence over the configured Context.
func (r *Retrying) SearchCtx(ctx context.Context, q Query) ([]*relational.Record, error) {
	if ctx == nil {
		ctx = r.Context
	}
	return r.searchCtx(ctx, q)
}

func (r *Retrying) searchCtx(ctx context.Context, q Query) ([]*relational.Record, error) {
	transient := r.IsTransient
	if transient == nil {
		transient = func(err error) bool {
			return !errors.Is(err, ErrBudgetExhausted) && !errors.Is(err, ErrTruncated)
		}
	}
	sleep := r.Sleep
	if sleep == nil {
		if ctx == nil {
			sleep = time.Sleep
		} else {
			// Interruptible wait: whichever of the timer and the
			// cancellation fires first ends the backoff.
			sleep = func(d time.Duration) {
				t := time.NewTimer(d)
				defer t.Stop()
				select {
				case <-t.C:
				case <-ctx.Done():
				}
			}
		}
	}
	var lastErr error
	for attempt := 0; attempt <= r.Retries; attempt++ {
		if attempt > 0 {
			r.mu.Lock()
			r.TotalRetries++
			if attempt == 1 {
				r.RetriedCalls++
			}
			r.mu.Unlock()
			var wait time.Duration
			if r.Backoff != nil {
				wait = r.Backoff(attempt)
			}
			// A server that said how long to back off knows better than
			// our schedule does.
			var ra *RetryAfterError
			if errors.As(lastErr, &ra) && ra.After > 0 {
				wait = ra.After
			}
			// Never schedule a backoff past the deadline: the attempt it
			// would lead into is already doomed, so fail fast and leave
			// the remaining budget to queries that can still finish.
			if ctx != nil && wait > 0 {
				if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
					return nil, fmt.Errorf("deepweb: backoff %s exceeds deadline after %d attempts (%v): %w",
						wait, attempt, lastErr, context.DeadlineExceeded)
				}
			}
			r.Obs.Retry(q.Key(), attempt, wait, lastErr)
			if wait > 0 {
				sleep(wait)
			}
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		recs, err := SearchWith(ctx, r.S, q)
		if err == nil {
			return recs, nil
		}
		lastErr = err
		if !transient(err) {
			// Forward any records alongside the error: a TruncatedError
			// carries the partial page its caller may still absorb.
			return recs, err
		}
	}
	return nil, fmt.Errorf("deepweb: %d attempts failed: %w", r.Retries+1, lastErr)
}

// K implements Searcher.
func (r *Retrying) K() int { return r.S.K() }

// ExponentialBackoff returns a Backoff function starting at base and
// doubling each attempt, capped at max.
func ExponentialBackoff(base, max time.Duration) func(int) time.Duration {
	return func(attempt int) time.Duration {
		d := base
		for i := 1; i < attempt; i++ {
			d *= 2
			if d >= max {
				return max
			}
		}
		if d > max {
			return max
		}
		return d
	}
}
