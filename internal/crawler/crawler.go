// Package crawler implements the paper's crawl frameworks over a shared
// environment: SMARTCRAWL (§3, with the QSel-Simple, QSel-Est-Biased and
// QSel-Est-Unbiased selection strategies of §3.2/§5 and the ΔD-removal
// optimization of §4.2), the QSel-Bound variant with its worst-case
// guarantee (§4.1, Algorithm 3), the IDEALCRAWL oracle (QSel-Ideal,
// Algorithm 1), and the two straightforward baselines NAIVECRAWL and
// FULLCRAWL (§1).
//
// All practical crawlers access the hidden database exclusively through a
// deepweb.Searcher; IdealCrawl additionally holds an oracle handle, which
// is the point — it is the unattainable upper bound the estimators chase.
//
// SMARTCRAWL optionally degrades gracefully over a misbehaving interface
// (SmartConfig.MaxAttempts, SmartConfig.Breaker): failed queries are
// requeued with freshly recomputed benefits or forfeited, uncharged
// failures refund their budget unit, truncated result pages are absorbed
// partially with solidity judged on the interface's true result size, and
// the run ends with a fully accounted Resilience report that survives
// checkpoint/resume. Fault classes and accounting rules live in package
// deepweb; docs/OPERATIONS.md is the operator-facing guide.
package crawler

import (
	"errors"
	"fmt"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/index"
	"smartcrawl/internal/match"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Env is the shared crawl environment: the local database, the restricted
// search interface, and the entity-resolution black box.
type Env struct {
	Local     *relational.Table
	Searcher  deepweb.Searcher
	Tokenizer *tokenize.Tokenizer
	Matcher   match.Matcher
	// Corpus, when set, is an opened corpus cache for Local: selection
	// resolves q(D) through its block-compressed, memory-mapped inverted
	// index instead of building index.InvertedIDs on the heap, and the
	// engine routes pool generation through its dictionary. The cache
	// MUST have been built over exactly this Local table (the engine
	// validates record counts); results are then byte-identical to the
	// in-memory path. Nil keeps the heap index.
	Corpus *index.CorpusFile
	// OnStep, when set, is invoked after every issued query with the
	// recorded step — progress reporting for long crawls. It runs on the
	// crawl goroutine; keep it fast.
	OnStep func(Step)
	// Obs, when set, observes the crawl: per-query events with estimated
	// vs realized benefit, selection-round and phase timings, dispatcher
	// latency. Nil disables all instrumentation at the cost of one
	// branch per hook; observation never changes crawl results.
	Obs *obs.Obs
}

func (e *Env) validate() error {
	if err := e.validateFederated(); err != nil {
		return err
	}
	if e.Searcher == nil {
		return errors.New("crawler: no searcher")
	}
	return nil
}

// validateFederated is validate without the searcher requirement: a
// federated crawl carries its searchers per interface (see
// NewFederatedSmart) and may leave Env.Searcher nil.
func (e *Env) validateFederated() error {
	switch {
	case e == nil:
		return errors.New("crawler: nil environment")
	case e.Local == nil || e.Local.Len() == 0:
		return errors.New("crawler: empty local database")
	case e.Tokenizer == nil:
		return errors.New("crawler: no tokenizer")
	case e.Matcher == nil:
		return errors.New("crawler: no matcher")
	}
	return nil
}

// Step records one issued query for tracing and for coverage-vs-budget
// curves.
type Step struct {
	Query             deepweb.Query
	EstimatedBenefit  float64
	NewlyCovered      int
	CumulativeCovered int
	ResultSize        int
	// NewHidden lists the hidden record IDs first crawled by this query
	// (≤ k entries), letting the harness rebuild coverage-vs-budget
	// curves from a single run.
	NewHidden []int
	// Iface is the index of the interface this query was issued against —
	// always 0 for single-interface crawls, the Interface slice index for
	// federated ones (see NewFederatedSmart). It rides through checkpoints
	// and the WAL so a federated crawl resumes and replays per interface.
	Iface int
}

// Result is the outcome of a crawl run.
type Result struct {
	// Covered[d] reports whether local record d was covered by some
	// issued query's result.
	Covered []bool
	// CoveredCount is the number of true entries in Covered.
	CoveredCount int
	// QueriesIssued counts queries actually sent (≤ budget).
	QueriesIssued int
	// Steps traces every issued query in order.
	Steps []Step
	// Matches maps each covered local record ID to the hidden record
	// that covered it (first match wins) — the input to enrichment.
	Matches map[int]*relational.Record
	// Crawled holds every distinct hidden record retrieved, keyed by
	// hidden record ID.
	Crawled map[int]*relational.Record
	// Resilience is the graceful-degradation report of a SMARTCRAWL run
	// with fault tolerance enabled (SmartConfig.MaxAttempts/Breaker); nil
	// otherwise. Checkpoints persist it so resumed runs report
	// cumulatively.
	Resilience *Resilience
}

// Crawler runs a crawl under a query budget.
type Crawler interface {
	// Name identifies the framework in experiment output.
	Name() string
	// Run issues at most budget queries and returns the crawl result.
	Run(budget int) (*Result, error)
}

// tracker accumulates coverage state shared by all frameworks.
type tracker struct {
	env    *Env
	joiner *match.Joiner
	res    *Result
	// names holds the interface names of a federated crawl, indexed by
	// interface index; nil for every single-interface framework, which
	// keeps their obs output untagged and byte-identical to before
	// federation existed.
	names []string
	// ifm holds the per-interface obs metric handles aligned with names;
	// nil when obs is disabled or the crawl is not federated.
	ifm []*obs.IfaceMetrics
}

func newTracker(env *Env) *tracker {
	n := env.Local.Len()
	return &tracker{
		env:    env,
		joiner: match.NewJoiner(env.Local.Records, env.Tokenizer, env.Matcher),
		res: &Result{
			Covered: make([]bool, n),
			Matches: make(map[int]*relational.Record),
			Crawled: make(map[int]*relational.Record),
		},
	}
}

// absorb records a query result: returns the local record IDs newly
// covered by it and logs the step.
func (t *tracker) absorb(q deepweb.Query, benefit float64, recs []*relational.Record) []int {
	return t.absorbSized(q, benefit, recs, len(recs), t.env.Searcher.K(), 0)
}

// absorbSized is absorb for results whose true size differs from the
// records in hand: a truncated page carries len(recs) records but the
// interface matched resultSize. The step trace and the solidity decision
// (resultSize < k drives both the obs event and §4.2 ΔD replay on resume)
// use the true size, so a cut page is never mistaken for a solid result.
// k is the result limit of the interface that answered (interfaces of a
// federated crawl differ in k) and iface its index (0 when single).
//
// Only a record not yet in Crawled is probed against the Joiner; a record
// an earlier query (or an earlier slot of this page) returned is skipped
// outright. The skip is exact:
//  1. A match is a pure function of the hidden record's values, D and the
//     matcher, and a hidden ID always carries the same values: the
//     simulator and the HTTP interface never change them, and Faulty's
//     truncate and stale faults only cut or hide records.
//  2. The first sighting of h marks every local record it matches as
//     covered (first match wins).
//  3. Covered never shrinks, so the loop for any later sighting would
//     skip every d it matched.
//  4. Federated hidden IDs are namespaced per interface before they reach
//     here (Smart.Run), so one ID never names two sources' records.
//  5. A resumed Result restores Crawled and Covered together (Smart.Run's
//     resume replay), and durable recovery rejects a step that re-crawls
//     a record or matches an uncrawled one.
//
// So every step, match, obs event, health score and calibration sample
// sees the same values as when each returned record was probed.
func (t *tracker) absorbSized(q deepweb.Query, benefit float64, recs []*relational.Record, resultSize, k, iface int) []int {
	var newly []int
	var newHidden []int
	for _, h := range recs {
		if _, ok := t.res.Crawled[h.ID]; ok {
			continue
		}
		t.res.Crawled[h.ID] = h
		newHidden = append(newHidden, h.ID)
		for _, d := range t.joiner.Matches(h) {
			if t.res.Covered[d] {
				continue
			}
			t.res.Covered[d] = true
			t.res.CoveredCount++
			t.res.Matches[d] = h
			newly = append(newly, d)
		}
	}
	t.res.QueriesIssued++
	step := Step{
		Query:             q,
		EstimatedBenefit:  benefit,
		NewlyCovered:      len(newly),
		CumulativeCovered: t.res.CoveredCount,
		ResultSize:        resultSize,
		NewHidden:         newHidden,
		Iface:             iface,
	}
	t.res.Steps = append(t.res.Steps, step)
	solid := resultSize < k
	if o := t.env.Obs; o != nil {
		name := ""
		if iface < len(t.names) {
			name = t.names[iface]
		}
		o.QueryIface(name, q.Key(), benefit, resultSize, len(newly), t.res.CoveredCount, solid)
	}
	if iface < len(t.ifm) && t.ifm[iface] != nil {
		m := t.ifm[iface]
		m.Queries.Inc()
		m.Covered.Add(int64(len(newly)))
		if solid {
			m.Solid.Inc()
		}
	}
	if t.env.OnStep != nil {
		t.env.OnStep(step)
	}
	return newly
}

// issue sends q through the environment searcher, translating budget
// exhaustion into a clean stop signal.
func (t *tracker) issue(q deepweb.Query) ([]*relational.Record, bool, error) {
	recs, err := t.env.Searcher.Search(q)
	if err != nil {
		if errors.Is(err, deepweb.ErrBudgetExhausted) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("crawler: issuing %q: %w", q, err)
	}
	return recs, true, nil
}
