package crawler

import (
	"fmt"

	"smartcrawl/internal/deepweb"
)

// PendingQuery is one entry of a selection round that has been journaled
// but not yet resolved: the query and the benefit it was selected under.
// When a crashed session is recovered mid-round, the unresolved tail of
// its last round is handed back as SmartConfig.ResumePending so the
// resumed run re-issues exactly the batch the crashed run had in flight —
// later queries of a batch are selected without seeing earlier results
// (see SmartConfig.BatchSize), so re-selecting them fresh after a crash
// would diverge from the uninterrupted run.
type PendingQuery struct {
	Query   deepweb.Query `json:"query"`
	Benefit float64       `json:"benefit"`
	// Iface is the interface index the round was allocated to (a round is
	// always issued against a single interface, even federated). Omitted
	// at zero, so single-interface journals are byte-identical to the
	// pre-federation format.
	Iface int `json:"iface,omitempty"`
}

// DurabilitySink receives synchronous callbacks from the Algorithm-4
// merge stage, one per event that affects crawl accounting. Every method
// runs on the crawl goroutine (the single writer), in selection order, so
// implementations need no locking to keep a journal consistent with the
// crawl.
//
// Charge attribution is per event, not a counter snapshot: an absorbed
// step always holds exactly one budget charge, and a requeued or
// forfeited attempt holds one iff the interface billed the failure
// (charged == true; refunded attempts pass false). A mid-merge snapshot
// of the budget counter would also include charges for round entries
// still unresolved — which a resumed session re-issues and re-charges —
// so only settled, per-event charges let recovery compute how much quota
// a resumed run actually has left.
//
// An error from any method aborts the crawl: a crawl that cannot persist
// its progress must not keep charging quota.
type DurabilitySink interface {
	// RoundSelected fires after a selection round is chosen and before
	// any of it is dispatched — the write-ahead intent record. sel is a
	// scratch slice the crawl loop reuses next round: implementations
	// must copy anything they retain past the call.
	RoundSelected(sel []PendingQuery, res *Result) error
	// StepAbsorbed fires after a query result has been absorbed into res;
	// step is the step just appended to res.Steps and newlyCovered lists
	// the local record IDs it covered. The absorbed query settles one
	// budget charge.
	StepAbsorbed(res *Result, step Step, newlyCovered []int) error
	// QueryRequeued fires when a failed query returns to the pool for
	// another attempt; charged reports whether the failed attempt was
	// billed (no refund).
	QueryRequeued(q deepweb.Query, attempt int, charged bool, res *Result) error
	// QueryForfeited fires when a failed query is given up on; charged as
	// for QueryRequeued.
	QueryForfeited(q deepweb.Query, attempts int, charged bool, res *Result) error
	// BudgetStopped fires for a query whose dispatch was refused because
	// the budget ran out mid-round; nothing was charged.
	BudgetStopped(q deepweb.Query, res *Result) error
	// RoundCompleted fires after the whole round has been merged — the
	// consistent point for group fsync and journal→snapshot compaction.
	RoundCompleted(res *Result) error
}

// noSink is the DurabilitySink of a crawl configured without one, so the
// merge stage calls its sink unconditionally.
type noSink struct{}

func (noSink) RoundSelected([]PendingQuery, *Result) error            { return nil }
func (noSink) StepAbsorbed(*Result, Step, []int) error                { return nil }
func (noSink) QueryRequeued(deepweb.Query, int, bool, *Result) error  { return nil }
func (noSink) QueryForfeited(deepweb.Query, int, bool, *Result) error { return nil }
func (noSink) BudgetStopped(deepweb.Query, *Result) error             { return nil }
func (noSink) RoundCompleted(*Result) error                           { return nil }

// sinkErr wraps a sink error, which aborts the crawl; nil stays nil.
func sinkErr(err error) error {
	if err != nil {
		return fmt.Errorf("crawler: durability sink: %w", err)
	}
	return nil
}
