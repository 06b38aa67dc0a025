package deepweb

import "sync"

// RetryBudget is a Finagle-style retry token bucket: successes deposit a
// fractional token (the ratio), each retry withdraws a whole one, and a
// small burst allowance lets a cold start retry before the first deposit.
// Under a fault burst the bucket drains and retries are denied instead of
// amplifying into a retry storm — total attempts stay within roughly
// (1 + ratio) of dispatches plus the burst, whatever MaxAttempts says.
//
// The crawl loop drives the budget from its merge stage (a single
// goroutine), which keeps requeue decisions deterministic at any worker
// count; the mutex makes the bucket safe for concurrent use all the same.
// It deliberately never reads the wall clock: tokens are earned by
// outcome counts, not by time, so a run's retry decisions replay
// identically.
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64 // tokens deposited per success
	burst  float64 // token cap, and the initial balance
	tokens float64
}

// DefaultRetryBurst is the initial/maximum token balance used by
// NewRetryBudget: enough headroom to ride out a short fault burst before
// any success has made a deposit.
const DefaultRetryBurst = 10

// NewRetryBudget returns a budget allowing roughly ratio retries per
// success (0.1 = retries may be ~10% of dispatches) with a burst-token
// cap. burst <= 0 takes DefaultRetryBurst; the bucket starts full.
func NewRetryBudget(ratio float64, burst float64) *RetryBudget {
	if burst <= 0 {
		burst = DefaultRetryBurst
	}
	return &RetryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// Deposit credits one success.
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Withdraw spends one token for a retry, reporting whether the budget
// allowed it. A denied withdrawal costs nothing.
func (b *RetryBudget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
