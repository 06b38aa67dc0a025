package crawler

import (
	"fmt"
	"strings"

	"smartcrawl/internal/deepweb"
)

// Resilience is the per-run graceful-degradation report of a SMARTCRAWL
// crawl over a misbehaving interface (SmartConfig.MaxAttempts > 0 or a
// Breaker attached). Every dispatched query ends in exactly one of four
// ways — absorbed, requeued for another attempt, forfeited, or dropped
// because the budget ran out mid-round — so the report satisfies
//
//	Dispatched == Absorbed + Requeued + Forfeited + BudgetStops
//
// (Accounted checks it). A resumed run (SmartConfig.Resume) carries the
// previous session's report forward cumulatively, so the identity holds
// across checkpoint boundaries too.
type Resilience struct {
	// Dispatched counts dispatcher outcomes handled by the merge stage —
	// every selection the crawl committed to, including ones that failed.
	Dispatched int `json:"dispatched"`
	// Absorbed counts queries whose results entered coverage, including
	// truncated pages absorbed partially.
	Absorbed int `json:"absorbed"`
	// Truncated counts the subset of Absorbed whose result page was cut
	// short (partial records absorbed, solidity judged on the true size).
	Truncated int `json:"truncated"`
	// Requeued counts failed attempts whose query went back into the
	// selection pool for another try.
	Requeued int `json:"requeued"`
	// Forfeited counts queries given up on — attempts exhausted, or no
	// still-uncovered records left to gain.
	Forfeited int `json:"forfeited"`
	// Refunded counts budget units returned for failures the interface
	// never charged (429 bursts, open circuit, cancellation; see
	// deepweb.Charged).
	Refunded int `json:"refunded"`
	// BudgetStops counts outcomes that hit ErrBudgetExhausted: selected,
	// never executed, never charged.
	BudgetStops int `json:"budget_stops"`
	// DeadlineExhausted counts the subset of Forfeited whose query the
	// crawl deadline (SmartConfig.Deadline) interrupted mid-search: no
	// time left to retry, budget unit refunded. Cause attribution only —
	// dropForfeit does not decrement it when a resumed session later
	// absorbs the query.
	DeadlineExhausted int `json:"deadline_exhausted,omitempty"`
	// RetryBudgetDenied counts the subset of Forfeited whose requeue the
	// retry budget (SmartConfig.RetryBudget) refused: the bucket was dry,
	// so retrying would have multiplied load on a failing interface.
	// Cause attribution only, like DeadlineExhausted.
	RetryBudgetDenied int `json:"retry_budget_denied,omitempty"`
	// BreakerTrips is how many times the circuit opened during the run
	// (cumulative across resumed sessions).
	BreakerTrips int `json:"breaker_trips"`
	// BreakerHolds counts selection rounds skipped because the circuit
	// was open.
	BreakerHolds int `json:"breaker_holds"`
	// ForfeitedQueries lists the queries still owed: forfeited and not
	// absorbed by a later resumed session. They are re-eligible on resume.
	ForfeitedQueries []string `json:"forfeited_queries,omitempty"`
}

// Accounted reports whether every dispatched query is accounted for by
// exactly one terminal counter.
func (r *Resilience) Accounted() bool {
	return r.Dispatched == r.Absorbed+r.Requeued+r.Forfeited+r.BudgetStops
}

// String renders the report as a one-line operator summary.
func (r *Resilience) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "resilience: dispatched=%d absorbed=%d truncated=%d requeued=%d forfeited=%d refunded=%d budget_stops=%d",
		r.Dispatched, r.Absorbed, r.Truncated, r.Requeued, r.Forfeited, r.Refunded, r.BudgetStops)
	if r.DeadlineExhausted > 0 {
		fmt.Fprintf(&b, " deadline_exhausted=%d", r.DeadlineExhausted)
	}
	if r.RetryBudgetDenied > 0 {
		fmt.Fprintf(&b, " retry_budget_denied=%d", r.RetryBudgetDenied)
	}
	if r.BreakerTrips > 0 || r.BreakerHolds > 0 {
		fmt.Fprintf(&b, " breaker_trips=%d breaker_holds=%d", r.BreakerTrips, r.BreakerHolds)
	}
	if !r.Accounted() {
		b.WriteString(" UNACCOUNTED")
	}
	return b.String()
}

// clone returns a deep copy (the forfeit list is mutable during a run).
func (r *Resilience) clone() *Resilience {
	if r == nil {
		return nil
	}
	c := *r
	c.ForfeitedQueries = append([]string(nil), r.ForfeitedQueries...)
	return &c
}

// dropForfeit removes q from the still-owed list — a resumed session
// absorbed a query an earlier session forfeited.
func (r *Resilience) dropForfeit(q deepweb.Query) {
	if len(r.ForfeitedQueries) == 0 {
		return
	}
	key := q.Key()
	for i, f := range r.ForfeitedQueries {
		if f == key {
			r.ForfeitedQueries = append(r.ForfeitedQueries[:i], r.ForfeitedQueries[i+1:]...)
			return
		}
	}
}
