package crawler

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
)

// SmartConfig configures a SMARTCRAWL run.
type SmartConfig struct {
	// PoolConfig controls query-pool generation (§3.1).
	PoolConfig querypool.Config
	// Sample is the hidden-database sample Hs with its ratio θ; nil runs
	// without sample information (QSel-Simple must then be used).
	Sample *sample.Sample
	// Estimator selects the query-selection strategy:
	// estimator.Frequency{} = QSel-Simple, estimator.Biased{} =
	// QSel-Est-B (the paper's SmartCrawl-B), estimator.Unbiased{} =
	// QSel-Est-U.
	Estimator estimator.Estimator
	// AlphaFallback enables the §6.2 inadequate-sample-size fallback
	// (treat D as a second sample with ratio α = θ|D|/|Hs|).
	AlphaFallback bool
	// DisableDeltaDRemoval turns off the §4.2 optimization that removes
	// predicted-ΔD records (q(D) − q(D)_cover of a solid query) from
	// consideration. Algorithm 4 has it on; the ablation bench turns it
	// off.
	DisableDeltaDRemoval bool
	// Resume continues a previous crawl from its saved Result (see
	// SaveResult/LoadResult): covered records stay covered, previously
	// issued queries are never re-issued, and solid-query ΔD removals
	// are replayed from the step trace. A resumed run with budget b2
	// after a run with budget b1 selects exactly the queries an
	// uninterrupted run with budget b1+b2 would. The resumed session
	// must use the same local table and matcher as the saved one: a
	// hidden record crawled before is never matched again, and the
	// checkpoint does not record the matcher, so a changed matcher would
	// apply only to records first crawled after the resume.
	Resume *Result
	// OnlineCalibration enables pay-as-you-go benefit estimation — the
	// paper's first future-work item (§9): instead of an upfront hidden-
	// database sample, the crawler calibrates from the queries it issues
	// anyway. Queries are bucketed by ⌈log₂|q(D₀)|⌉ and each bucket
	// tracks the mean REALIZED benefit (records newly covered per issued
	// query); an unissued query's benefit is its bucket's mean, scaled by
	// the fraction of its records still uncovered. Until a bucket has
	// enough observations it falls back to min(|q(D)|, k) (QSel-Simple
	// capped at the only hard bound available without a sample). Requires
	// Sample == nil and no explicit Estimator.
	OnlineCalibration bool
	// EagerSelection replaces the §6.3 lazy priority queue with a full
	// argmax rescan of the pool at every iteration — the naive
	// implementation Appendix B compares against. Selection results are
	// identical (same argmax, same tie-breaking); only cost differs.
	// Exposed for the E10 ablation. Incompatible with federation (the
	// allocator ranks interfaces through their lazy queues).
	EagerSelection bool
	// BatchSize > 1 enables batch-greedy selection: the top-n queries
	// are popped together and issued concurrently (the searcher must be
	// safe for concurrent use, as HTTP clients are). Later queries in a
	// batch are selected without seeing earlier results, so coverage can
	// dip slightly below sequential greedy — the classic latency/quality
	// trade against slow network interfaces. Results are absorbed in
	// selection order, keeping runs deterministic. 0 or 1 is the
	// sequential Algorithm 4.
	BatchSize int
	// Concurrency is the worker-pool size of the crawl pipeline: how
	// many goroutines issue a selection batch (deepweb.Dispatcher), and
	// how many shards the inverted-index build and FP-Growth mining are
	// partitioned into. It is a pure wall-clock knob — results are
	// merged into the delta-update loop in selection order by a single
	// writer, so at a fixed seed the coverage and the issued-query log
	// are byte-identical for ANY Concurrency. 0 defaults to BatchSize
	// (every query of a batch gets its own goroutine). Selection quality
	// is governed by BatchSize alone.
	Concurrency int
	// Shards partitions the local records into this many contiguous
	// shards for parallel batch removal (resume replay, coverage and §4.2
	// ΔD removals run one shard worker per range with private per-query
	// delta accumulators; see selection.removeBatch). Like Concurrency it
	// is a pure wall-clock knob: the shard merge applies commutative
	// integer deltas through a single writer, so coverage and the
	// issued-query log are byte-identical for ANY shard count. 0 or 1
	// keeps the sequential removal loop.
	Shards int
	// MaxAttempts > 0 enables graceful degradation: a query whose issue
	// fails is re-queued into the selection pool (with its benefit
	// recomputed against the current coverage) until it has failed
	// MaxAttempts times, then forfeited; the run continues instead of
	// aborting. Failures the interface never charged — 429 bursts, an
	// open circuit, cancellations (deepweb.Charged) — refund their budget
	// unit. Truncated result pages (deepweb.TruncatedError) are absorbed
	// partially with solidity judged on the true result size. The run's
	// Result carries a Resilience report. 0 (the default) preserves the
	// strict behavior: any interface error aborts the run.
	MaxAttempts int
	// Context, when non-nil, bounds the crawl for graceful shutdown: once
	// it is cancelled no further rounds are selected, queries of the
	// current round not yet handed to a dispatcher worker are skipped
	// before they can be charged, and in-flight queries drain — their
	// results are absorbed normally, so every charged query's outcome is
	// kept. Run then returns the partial Result with err == nil; callers
	// detect the interruption via ctx.Err(). The stop point is a round
	// boundary plus drained stragglers, which is exactly a resumable
	// checkpoint state.
	Context context.Context
	// Durability, when non-nil, receives synchronous accounting callbacks
	// from the merge stage (see DurabilitySink) — the hook the WAL
	// journal in internal/durable attaches to. A sink error aborts the
	// run.
	Durability DurabilitySink
	// ResumePending re-issues the unresolved tail of a crashed session's
	// last selection round, with the original benefits, before any new
	// selection happens. Populated by durable.Recover from the round
	// intent record; meaningful only together with Resume.
	ResumePending []PendingQuery
	// Breaker, when non-nil, gates selection rounds through a circuit
	// breaker: interface failures feed it, and while it is open whole
	// rounds are held (each held round advances the count-based
	// cooldown); the half-open probe round has size 1. Driven entirely
	// from the single-writer merge stage, so breaker transitions — like
	// everything else — are deterministic for any Concurrency. Implies
	// MaxAttempts=1 when MaxAttempts is unset. Attach obs via
	// deepweb.(*Breaker).WithObs; Run does not rewire it. For a
	// federated crawl, set breakers per interface (Interface.Breaker)
	// instead.
	Breaker *deepweb.Breaker
	// Deadline, when positive, is the crawl's end-to-end wall-clock
	// budget. It is threaded into every search as a context deadline —
	// deliberately separate from Context, whose cancellation means
	// "drain gracefully": an expired deadline aborts in-flight searches
	// too. Queries the deadline catches before a worker claims them
	// return to the pool unpenalized (never charged); a query it
	// interrupts mid-search is forfeited with its budget unit refunded
	// and counted in Resilience.DeadlineExhausted; and the crawl loop
	// stops at the next round boundary. Implies MaxAttempts=1 when
	// MaxAttempts is unset, so interrupted queries degrade instead of
	// aborting the run.
	Deadline time.Duration
	// QueryTimeout, when positive, bounds each individual search with its
	// own context deadline, so one hung round-trip cannot consume the
	// whole crawl Deadline. A query that times out while the crawl
	// deadline is still live is an ordinary transient failure: it is
	// requeued (subject to MaxAttempts and the retry budget), not
	// deadline-forfeited.
	QueryTimeout time.Duration
	// RetryBudget, when positive, caps requeues at roughly this fraction
	// of successful dispatches (Finagle-style token bucket: every
	// absorbed query deposits RetryBudget tokens, every requeue withdraws
	// one, and the bucket starts with a small burst). Under a sustained
	// outage retries stop once the budget drains — the query is forfeited
	// and counted in Resilience.RetryBudgetDenied — so a retry storm
	// cannot multiply load on an interface that is already down. The
	// bucket is driven from the single-writer merge stage in selection
	// order, keeping runs deterministic at any Concurrency. 0.1 means
	// "retries may add 10% extra load".
	RetryBudget float64
	// Health, when non-nil, enables per-interface health scoring in a
	// federated crawl: each interface carries a deterministic EWMA score
	// over its outcomes (successes recover it toward 1, failures and
	// breaker holds decay it), and the allocator multiplies each
	// interface's marginal-benefit bid by its score — so a sick interface
	// gradually loses rounds to healthy ones instead of burning charged
	// queries at full rate until its breaker trips. A degraded interface
	// that has lost ProbeEvery consecutive rounds is granted one round as
	// a recovery probe. Ignored for single-interface crawls (there is no
	// allocation choice to steer).
	Health *HealthConfig
}

// Smart is the SMARTCRAWL framework (Algorithm 4), generalized over a set
// of hidden-database interfaces: the single-interface crawl of the paper is
// exactly the n=1 case of the federated loop (see NewFederatedSmart), so
// there is no second code path to drift from the oracle-tested one.
type Smart struct {
	env *Env
	cfg SmartConfig
	// ifaces is the federated interface set; empty means single-interface
	// (synthesized from env.Searcher at Run).
	ifaces []Interface

	// HeapRepushes is populated after Run with the lazy-queue repush
	// count (the `t` factor of the Appendix B analysis), summed over
	// interfaces.
	HeapRepushes int
	// PoolSize is populated after Run with the generated pool size.
	PoolSize int
}

// NewSmart constructs a SMARTCRAWL crawler. The estimator defaults to
// Biased when a sample is supplied and Frequency (QSel-Simple) otherwise.
func NewSmart(env *Env, cfg SmartConfig) (*Smart, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if cfg.Estimator == nil {
		if cfg.Sample != nil {
			cfg.Estimator = estimator.Biased{}
		} else {
			cfg.Estimator = estimator.Frequency{}
		}
	}
	if cfg.Sample == nil {
		if _, ok := cfg.Estimator.(estimator.Frequency); !ok {
			return nil, errors.New("crawler: sample-based estimators require a sample")
		}
	} else if cfg.Sample.Theta <= 0 {
		return nil, fmt.Errorf("crawler: sample has non-positive theta %v", cfg.Sample.Theta)
	}
	if cfg.OnlineCalibration && cfg.Sample != nil {
		return nil, errors.New("crawler: OnlineCalibration replaces the sample; supply one or the other")
	}
	return &Smart{env: env, cfg: cfg}, nil
}

// Name implements Crawler.
func (s *Smart) Name() string {
	if len(s.ifaces) > 1 {
		return fmt.Sprintf("smartcrawl-federated-%d", len(s.ifaces))
	}
	if s.cfg.OnlineCalibration {
		return "smartcrawl-online"
	}
	if _, ok := s.cfg.Estimator.(estimator.Frequency); ok {
		return "smartcrawl-simple"
	}
	return "smartcrawl-" + s.cfg.Estimator.Name()
}

// qstate is the live selection state of one pool query under one interface.
type qstate struct {
	q *querypool.Query
	// qD holds the local record IDs satisfying q at generation time,
	// sorted ascending — the interned-index intersection result.
	qD    []uint32
	freqD int // |q(D)| over still-considered records
	// matchS is |q(D) ∩̃ q(Hs)| over still-considered records.
	matchS int
	freqS  int // |q(Hs)|, static
	issued bool
	// attempts counts failed issues of this query (graceful degradation);
	// at SmartConfig.MaxAttempts the query is forfeited.
	attempts int
}

// calibMinObs is the observation count below which an online-calibration
// bucket is considered unusable (see SmartConfig.OnlineCalibration).
const calibMinObs = 3

// bucketStat is one online-calibration bucket: the running sum and count of
// realized benefits of queries whose |q(D₀)| falls in the bucket.
type bucketStat struct {
	sum   float64
	count int
}

// bucketOf is the bit length of n (⌈log₂(n+1)⌉ for n ≥ 0) — the hardware
// leading-zero count instead of a shift loop.
func bucketOf(n int) int { return bits.Len(uint(n)) }

// ifaceRun is the per-interface runtime of the generalized Algorithm-4
// loop: the interface's own budget-metered searcher and dispatcher, its
// circuit breaker, its selection state (per-query statistics, lazy queue,
// considered set), its benefit function (per-interface k, θ, α, estimator),
// and its online-calibration buckets. A single-interface crawl runs exactly
// one of these.
type ifaceRun struct {
	idx  int
	name string
	k    int

	counting *deepweb.Counting
	disp     *deepweb.Dispatcher
	br       *deepweb.Breaker

	sel       *selection
	benefitOf func(*qstate) float64
	rescore   func(int) (float64, bool)

	calib   [64]bucketStat
	metrics *obs.IfaceMetrics
}

// ifaceCand is one allocator candidate: an interface, the clean benefit at
// the top of its queue, and the health-scaled rank the allocator orders by
// (rank == benefit when health scoring is off or the interface is healthy —
// multiplying by a score of exactly 1.0 is bit-identical).
type ifaceCand struct {
	ir      *ifaceRun
	benefit float64
	rank    float64
}

// Run implements Crawler, executing Algorithm 4 generalized over the
// interface set: generate the pool once, build per-interface selection
// state, then round by round allocate the shared budget to the interface
// whose best query promises the largest marginal benefit, issue the round
// there, cover records globally, and replay §4.2 removals against the
// issuing interface until the budget or every pool is exhausted.
func (s *Smart) Run(budget int) (*Result, error) {
	env := s.env
	t := newTracker(env)

	// The interface set: explicit for a federated crawl, synthesized from
	// the environment searcher otherwise. The single-interface path IS the
	// n=1 federated loop.
	ifaces := s.ifaces
	if len(ifaces) == 0 {
		ifaces = []Interface{{
			Searcher:  env.Searcher,
			Sample:    s.cfg.Sample,
			Estimator: s.cfg.Estimator,
			Breaker:   s.cfg.Breaker,
		}}
	}
	nIf := len(ifaces)
	federated := nIf > 1
	if federated {
		t.names = make([]string, nIf)
		for i := range ifaces {
			t.names[i] = ifaces[i].Name
		}
	}
	// One meter, n charging wrappers: every interface spends the same
	// global allowance.
	meter := deepweb.NewBudget(budget)

	// The crawl's wall-clock budget. searchCtx carries ONLY the deadline:
	// user cancellation (s.cfg.Context) deliberately stays out of it so
	// graceful shutdown keeps its drain semantics — in-flight queries
	// finish and are absorbed — while deadline expiry aborts them.
	var searchCtx context.Context
	if s.cfg.Deadline > 0 {
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.Deadline)
		defer cancel()
		searchCtx = dctx
	}

	batch := s.cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	workers := s.cfg.Concurrency
	if workers < 1 {
		workers = batch
	}

	poolCfg := s.cfg.PoolConfig
	if poolCfg.Workers == 0 {
		poolCfg.Workers = workers
	}
	stopPool := env.Obs.Phase("pool_generate")
	pool := querypool.Generate(env.Local, env.Tokenizer, poolCfg)
	stopPool()
	s.PoolSize = pool.Len()

	// Per-interface runtime state. Estimator Benefit calls are the
	// selection hot path; the instrumented wrapper adds one atomic count
	// per call and nothing else, so the benefits — and therefore selection
	// order — are bit-identical.
	runs := make([]*ifaceRun, nIf)
	anyBreaker := false
	for i := range ifaces {
		h := &ifaces[i]
		ir := &ifaceRun{idx: i, name: h.Name, br: h.Breaker, k: h.Searcher.K()}
		ir.counting = deepweb.NewCountingOn(h.Searcher, meter)
		ir.disp = &deepweb.Dispatcher{
			S:             ir.counting,
			Workers:       workers,
			SearchContext: searchCtx,
			Timeout:       s.cfg.QueryTimeout,
			Obs:           env.Obs,
		}
		if h.Breaker != nil {
			anyBreaker = true
		}
		// Sample-derived estimator constants; the sample's interned
		// indexes and match tables are built inside newSelection.
		var theta, alpha float64
		if h.Sample != nil && h.Sample.Len() > 0 {
			theta = h.Sample.Theta
			if s.cfg.AlphaFallback {
				alpha = theta * float64(env.Local.Len()) / float64(h.Sample.Len())
			}
		}
		est := h.Estimator
		if est == nil {
			est = estimator.Frequency{}
		}
		if env.Obs.Enabled() {
			est = estimator.Instrumented{E: est, Obs: env.Obs}
		}
		k := ir.k
		ir.benefitOf = func(st *qstate) float64 {
			if s.cfg.OnlineCalibration {
				b := ir.calib[bucketOf(len(st.qD))]
				if b.count >= calibMinObs {
					// Bucket mean, scaled by the still-uncovered
					// fraction of this query's records.
					return (b.sum / float64(b.count)) *
						float64(st.freqD) / float64(len(st.qD))
				}
				if f := float64(st.freqD); f < float64(k) {
					return f
				}
				return float64(k) // uncalibrated: QSel-Simple capped at k
			}
			return est.Benefit(estimator.Stats{
				FreqD:       st.freqD,
				FreqSample:  st.freqS,
				MatchSample: st.matchS,
				Theta:       theta,
				K:           k,
				Alpha:       alpha,
			})
		}
		// Pool resolution, the interned inverted/forward indexes, the
		// precomputed sample-match counts, and the initial priorities —
		// Figure 3's index structures on token IDs (see selection.go).
		ir.sel = newSelection(env, pool, selectionStats{smp: h.Sample, joiner: t.joiner}, workers, s.cfg.Shards, ir.benefitOf)
		ir.rescore = func(qid int) (float64, bool) {
			st := ir.sel.states[qid]
			if st == nil || st.issued || st.freqD <= 0 {
				return 0, false
			}
			return ir.benefitOf(st), true
		}
		if federated && env.Obs.Enabled() {
			ir.metrics = env.Obs.Iface(ir.name)
		}
		runs[i] = ir
	}
	if federated {
		t.ifm = make([]*obs.IfaceMetrics, nIf)
		for i, ir := range runs {
			t.ifm[i] = ir.metrics
		}
	}

	// Resume: replay a previous session's effects before selecting.
	if prev := s.cfg.Resume; prev != nil {
		if len(prev.Covered) != env.Local.Len() {
			return nil, fmt.Errorf("crawler: resume checkpoint covers %d records, local database has %d",
				len(prev.Covered), env.Local.Len())
		}
		// Restore the tracker's cumulative state.
		copy(t.res.Covered, prev.Covered)
		t.res.CoveredCount = prev.CoveredCount
		t.res.QueriesIssued = prev.QueriesIssued
		t.res.Steps = append(t.res.Steps, prev.Steps...)
		for id, r := range prev.Crawled {
			t.res.Crawled[id] = r
		}
		for d, h := range prev.Matches {
			t.res.Matches[d] = h
		}
		// Replay coverage removals against every interface, then retire
		// each step's query — and replay its §4.2 removals — against the
		// interface that issued it. Replay is the largest removal batch of
		// a crawl's lifetime, so it benefits most from sharding.
		coveredIDs := make([]int, 0, prev.CoveredCount)
		for d, covered := range prev.Covered {
			if covered {
				coveredIDs = append(coveredIDs, d)
			}
		}
		for _, ir := range runs {
			ir.sel.removeBatch(coveredIDs)
		}
		for _, step := range prev.Steps {
			if step.Iface < 0 || step.Iface >= nIf {
				return nil, fmt.Errorf("crawler: resume step is tagged interface %d; run has %d interfaces",
					step.Iface, nIf)
			}
			ir := runs[step.Iface]
			q := pool.Find(step.Query)
			if q == nil || ir.sel.states[q.ID] == nil {
				continue // pool drift; the query can no longer be selected anyway
			}
			st := ir.sel.states[q.ID]
			st.issued = true
			if !s.cfg.EagerSelection {
				// The replayed query's heap entry was never popped; a clean
				// entry would be re-issued without a rescore. (Usually its
				// own covered records already invalidated it above, but a
				// step that covered nothing new leaves the entry clean.)
				ir.sel.heap.Invalidate(q.ID)
			}
			if step.ResultSize < ir.k && !s.cfg.DisableDeltaDRemoval {
				ir.sel.removeBatchU32(st.qD)
			}
			// Replay the calibration observations so a resumed online
			// crawl selects exactly as an uninterrupted one.
			if s.cfg.OnlineCalibration && len(st.qD) > 0 {
				bkt := bucketOf(len(st.qD))
				ir.calib[bkt].sum += float64(step.NewlyCovered)
				ir.calib[bkt].count++
			}
		}
		if s.cfg.OnlineCalibration {
			for _, ir := range runs {
				ir.sel.heap.Reprioritize(ir.rescore)
			}
		}
	}

	// Graceful degradation (see SmartConfig.MaxAttempts/Breaker): failed
	// queries are requeued or forfeited instead of aborting the run, and
	// the report below accounts for every dispatched query.
	maxAttempts := s.cfg.MaxAttempts
	if maxAttempts < 1 && (anyBreaker || s.cfg.Deadline > 0) {
		maxAttempts = 1
	}
	resilient := maxAttempts > 0
	var rep *Resilience
	tripsBase := 0
	if resilient {
		rep = &Resilience{}
		if prev := s.cfg.Resume; prev != nil && prev.Resilience != nil {
			rep = prev.Resilience.clone()
		}
		tripsBase = rep.BreakerTrips
		// The live report rides inside the Result from the start, not
		// only at return: the durability sink snapshots t.res mid-crawl,
		// and a snapshot missing the failure accounting would under-count
		// the settled charge on recovery (durable.Recover derives it as
		// issued + requeued + forfeited − refunded).
		t.res.Resilience = rep
	} else if prev := s.cfg.Resume; prev != nil && prev.Resilience != nil {
		// A non-resilient resumed run still carries the historical report
		// forward, for the same recovery-accounting reason — and so the
		// failures an earlier session absorbed stay reported.
		t.res.Resilience = prev.Resilience.clone()
	}
	// Retry budget (see SmartConfig.RetryBudget): deposits and withdrawals
	// happen only here on the crawl loop's goroutine, in selection order.
	var retryBudget *deepweb.RetryBudget
	if resilient && s.cfg.RetryBudget > 0 {
		retryBudget = deepweb.NewRetryBudget(s.cfg.RetryBudget, 0)
	}
	// Health scoring (see SmartConfig.Health): federated only — with one
	// interface there is no allocation choice to steer.
	var health *healthState
	if federated && s.cfg.Health != nil {
		health = newHealthState(*s.cfg.Health, nIf)
		for _, hr := range runs {
			if hr.metrics != nil {
				hr.metrics.HealthScore.Set(1000)
			}
		}
	}
	// noteHealth publishes an interface's score after it moved: the obs
	// gauge (milli-units) and a health trace event. Clean runs never call
	// it — scores stay exactly 1.0 — so traces stay byte-identical.
	noteHealth := func(ir *ifaceRun) {
		sc := health.score[ir.idx]
		if ir.metrics != nil {
			ir.metrics.HealthScore.Set(int64(sc*1000 + 0.5))
		}
		env.Obs.Health(ir.name, sc, false)
	}
	// requeue returns a failed query to its interface's pool for another
	// attempt. Its live statistics are recomputed from the considered set
	// first: removals during the in-flight window skipped this query
	// (issued queries are normally never reconsidered), so freqD/matchS are
	// stale. Returns false — forfeit — when attempts are exhausted, nothing
	// the query covers is still uncovered, or the retry budget is dry (the
	// cheap checks run first so a guaranteed forfeit never burns a token).
	requeue := func(ir *ifaceRun, st *qstate, fromHeap bool) bool {
		ir.sel.recompute(st)
		if st.freqD <= 0 || st.attempts >= maxAttempts {
			return false
		}
		if retryBudget != nil && !retryBudget.Withdraw() {
			// The budget is dry: forfeiting here is what caps total
			// attempts near (1+ratio)·dispatches under a sustained outage.
			rep.RetryBudgetDenied++
			env.Obs.RetryDenied(st.q.Keywords.Key())
			return false
		}
		st.issued = false
		if !s.cfg.EagerSelection {
			if fromHeap {
				ir.sel.heap.Push(st.q.ID, ir.benefitOf(st))
			} else {
				// The entry is still in the heap (resumed pending query,
				// never popped); a Push would duplicate it. Invalidation
				// forces a rescore with the recomputed statistics.
				ir.sel.heap.Invalidate(st.q.ID)
			}
		}
		return true
	}

	defer env.Obs.Phase("crawl_loop")()
	type issue struct {
		st      *qstate // nil when a resumed pending query left the pool
		q       deepweb.Query
		benefit float64
		// fromHeap records that selection popped this query's heap entry.
		// A resumed pending query is issued without popping — its entry is
		// still in the heap (invalidated) — so returning it to the pool
		// must not Push a duplicate entry.
		fromHeap bool
		recs     []*relational.Record
		err      error
		// undispatched mirrors deepweb.Outcome.Undispatched: the searcher
		// never saw this query (shutdown drain or deadline expiry caught it
		// before a worker claimed it), so it was never charged.
		undispatched bool
	}
	ctx := s.cfg.Context
	sink := s.cfg.Durability
	sinkErr := func(err error) error {
		return fmt.Errorf("crawler: durability sink: %w", err)
	}
	anyRemaining := func() bool {
		for _, ir := range runs {
			if ir.sel.remaining > 0 {
				return true
			}
		}
		return false
	}
	// pending is the unresolved tail of a crashed session's last round
	// (see SmartConfig.ResumePending); it is re-issued with the original
	// benefits — against the original interface — before any fresh
	// selection.
	pending := append([]PendingQuery(nil), s.cfg.ResumePending...)
	// Round scratch, allocated once and reused every round: the selection
	// loop runs thousands of rounds and the per-round make calls were
	// measurable. Safe because every consumer finishes with the slice
	// inside the round — the dispatcher reads its input before returning,
	// and DurabilitySink.RoundSelected must copy what it retains.
	issueBuf := make([]issue, batch)
	round := make([]*issue, 0, batch)
	intentScratch := make([]PendingQuery, 0, batch)
	qsScratch := make([]deepweb.Query, 0, batch)
	cands := make([]ifaceCand, 0, nIf)
	for !meter.Exhausted() && (anyRemaining() || len(pending) > 0) {
		if ctx != nil && ctx.Err() != nil {
			break // graceful shutdown: stop at the round boundary
		}
		if searchCtx != nil && searchCtx.Err() != nil {
			break // the crawl deadline is spent
		}
		// Allocate the round to an interface. A replayed crashed round
		// goes back to the interface that owned it; a single-interface
		// crawl has no choice to make (and skips the allocator entirely,
		// preserving the pre-federation loop byte for byte); a federated
		// round goes to the live interface whose best clean query
		// promises the largest marginal benefit, ties broken by smaller
		// interface index so allocation is deterministic.
		var ir *ifaceRun
		if len(pending) > 0 {
			pi := pending[0].Iface
			if pi < 0 || pi >= nIf {
				return nil, fmt.Errorf("crawler: recovered pending round is tagged interface %d; run has %d interfaces", pi, nIf)
			}
			ir = runs[pi]
			// Circuit gate: while open, each held round advances the
			// count-based cooldown; the round that half-opens the breaker
			// proceeds as a single-query probe.
			if ir.br != nil && !ir.br.Allow() {
				rep.BreakerHolds++
				if ir.metrics != nil {
					ir.metrics.Holds.Inc()
				}
				if health != nil {
					health.onFailure(ir.idx)
					noteHealth(ir)
				}
				continue
			}
		} else if nIf == 1 {
			ir = runs[0]
			if ir.br != nil && !ir.br.Allow() {
				rep.BreakerHolds++
				continue
			}
		} else {
			// Rank live interfaces by the clean benefit at the top of
			// their queues (Peek performs exactly the lazy cleaning a Pop
			// would, so ranking does no throwaway work), then grant the
			// round to the best-ranked one whose breaker admits traffic.
			// Consulting breakers in rank order keeps an open circuit on
			// the best interface from starving the healthy ones; if every
			// live interface is held, the round is skipped and each hold
			// advances its breaker's cooldown.
			cands = cands[:0]
			for _, c := range runs {
				if _, b, ok := c.sel.heap.Peek(c.rescore); ok {
					rank := b
					if health != nil {
						rank = b * health.score[c.idx]
					}
					cands = append(cands, ifaceCand{c, b, rank})
				}
			}
			held := false
			allocBenefit := 0.0
			probe := false
			if health != nil {
				// Recovery probe: a degraded interface that has lost
				// ProbeEvery consecutive rounds force-wins this one (lowest
				// interface index among those due), breaker permitting —
				// the score only recovers through successes, and successes
				// need traffic.
				pi := -1
				for j, c := range cands {
					if health.probeDue(c.ir.idx) && (pi == -1 || c.ir.idx < cands[pi].ir.idx) {
						pi = j
					}
				}
				if pi >= 0 {
					c := cands[pi]
					cands = append(cands[:pi], cands[pi+1:]...)
					if c.ir.br != nil && !c.ir.br.Allow() {
						rep.BreakerHolds++
						if c.ir.metrics != nil {
							c.ir.metrics.Holds.Inc()
						}
						health.onFailure(c.ir.idx)
						noteHealth(c.ir)
						held = true
					} else {
						ir, allocBenefit, probe = c.ir, c.benefit, true
						health.sinceProbe[c.ir.idx] = 0
					}
				}
			}
			for ir == nil && len(cands) > 0 {
				best := 0
				for j := 1; j < len(cands); j++ {
					if cands[j].rank > cands[best].rank {
						best = j
					}
				}
				c := cands[best]
				cands = append(cands[:best], cands[best+1:]...)
				if c.ir.br != nil && !c.ir.br.Allow() {
					rep.BreakerHolds++
					if c.ir.metrics != nil {
						c.ir.metrics.Holds.Inc()
					}
					if health != nil {
						health.onFailure(c.ir.idx)
						noteHealth(c.ir)
					}
					held = true
					continue
				}
				ir, allocBenefit = c.ir, c.benefit
				break
			}
			if ir == nil {
				if held {
					continue
				}
				break // every interface's pool is exhausted
			}
			if health != nil {
				// Degraded interfaces that lost this round age toward their
				// recovery probe.
				for _, c := range cands {
					if c.ir != ir && health.degraded(c.ir.idx) {
						health.sinceProbe[c.ir.idx]++
					}
				}
				if probe {
					if ir.metrics != nil {
						ir.metrics.Probes.Inc()
					}
					env.Obs.Health(ir.name, health.score[ir.idx], true)
				}
			}
			env.Obs.Alloc(ir.name, allocBenefit, meter.Remaining())
			if ir.metrics != nil {
				ir.metrics.Allocs.Inc()
			}
		}
		// Pop up to `batch` queries (bounded by the remaining budget so
		// concurrent issues never overshoot b).
		n := batch
		if ir.br != nil && ir.br.State() == deepweb.BreakerHalfOpen {
			n = 1
		}
		if r := meter.Remaining(); r >= 0 && r < n {
			n = r
		}
		round = round[:0]
		if len(pending) > 0 {
			// Replay the crashed round verbatim: same queries, same
			// benefits, same interface, same order. The pool state may
			// have drifted (a forfeited query whose records were since
			// covered), so a missing qstate is tolerated — the query is
			// still issued, only its live bookkeeping is skipped. A round
			// is journaled as one single-interface intent record, so the
			// pending tail is interface-homogeneous; trim defensively.
			m := 0
			for m < len(pending) && pending[m].Iface == ir.idx {
				m++
			}
			if n > m {
				n = m
			}
			for _, p := range pending[:n] {
				is := &issueBuf[len(round)]
				*is = issue{q: p.Query, benefit: p.Benefit}
				if q := pool.Find(p.Query); q != nil {
					if st := ir.sel.states[q.ID]; st != nil && !st.issued {
						st.issued = true
						is.st = st
						if !s.cfg.EagerSelection {
							// The query was never popped this session —
							// its heap entry is still live, and a clean
							// entry would be re-issued without ever being
							// rescored. Mark it stale so the issued
							// filter retires it at the next pop.
							ir.sel.heap.Invalidate(q.ID)
						}
					}
				}
				round = append(round, is)
			}
			pending = pending[n:]
		} else {
			for len(round) < n {
				var (
					qid     int
					benefit float64
					ok      bool
				)
				if s.cfg.EagerSelection {
					qid, benefit, ok = eagerArgmax(ir.sel.states, ir.benefitOf)
				} else {
					qid, benefit, ok = ir.sel.heap.Pop(ir.rescore)
				}
				if !ok {
					break // pool exhausted
				}
				st := ir.sel.states[qid]
				st.issued = true
				is := &issueBuf[len(round)]
				*is = issue{st: st, q: st.q.Keywords, benefit: benefit, fromHeap: true}
				round = append(round, is)
			}
		}
		if len(round) == 0 {
			break
		}
		if sink != nil {
			// Write-ahead intent: journal the selected batch before any
			// of it is dispatched, so a crash mid-round can re-issue
			// exactly this batch instead of re-selecting a different one.
			intentScratch = intentScratch[:0]
			for _, is := range round {
				intentScratch = append(intentScratch, PendingQuery{Query: is.q, Benefit: is.benefit, Iface: ir.idx})
			}
			if err := sink.RoundSelected(intentScratch, t.res); err != nil {
				return nil, sinkErr(err)
			}
		}
		if o := env.Obs; o != nil {
			o.Round(len(round), meter.Remaining())
		}

		// Issue the round through the interface's worker pool. Outcomes
		// come back index-aligned with the selection order regardless of
		// which worker finished first. Under a cancelled context the
		// dispatcher drains: started queries finish, unstarted ones
		// come back with ctx.Err() before they could be charged.
		qsScratch = qsScratch[:0]
		for _, is := range round {
			qsScratch = append(qsScratch, is.q)
		}
		for i, o := range ir.disp.DispatchCtx(ctx, qsScratch) {
			round[i].recs, round[i].err = o.Records, o.Err
			round[i].undispatched = o.Undispatched
		}

		// Merge stage: absorb in selection order so runs stay
		// deterministic for any worker count — including every
		// degradation decision (requeue, forfeit, refund, breaker
		// feeding), which is why none of it happens on the workers.
		for _, is := range round {
			st := is.st
			if is.undispatched {
				// Shutdown drain or deadline expiry skipped this query
				// before it was issued: never executed, never charged, no
				// journal record — it simply returns to the pool, and a
				// resumed session will find it still pending in the round
				// intent record. (A deadline-skipped query is NOT a
				// deadline forfeit: nothing was spent on it.)
				if st != nil {
					st.issued = false
					if !s.cfg.EagerSelection {
						if is.fromHeap {
							ir.sel.heap.Push(st.q.ID, is.benefit)
						} else {
							ir.sel.heap.Invalidate(st.q.ID)
						}
					}
				}
				continue
			}
			if errors.Is(is.err, deepweb.ErrBudgetExhausted) {
				if rep != nil {
					rep.Dispatched++
					rep.BudgetStops++
				}
				if sink != nil {
					if err := sink.BudgetStopped(is.q, t.res); err != nil {
						return nil, sinkErr(err)
					}
				}
				continue
			}
			if rep != nil {
				rep.Dispatched++
			}
			if ir.br != nil {
				ir.br.Record(is.err)
			}
			resultSize := len(is.recs)
			if is.err != nil {
				var te *deepweb.TruncatedError
				switch {
				case !resilient:
					return nil, fmt.Errorf("crawler: issuing %q: %w", is.q, is.err)
				case errors.As(is.err, &te):
					// A cut page: absorb the partial records below, but
					// judge solidity — and trace the step — on the true
					// matched size, so §4.2 never removes ΔD records on
					// the strength of a truncated result.
					resultSize = te.Full
					rep.Truncated++
					env.Obs.Truncated(is.q.Key(), te.Returned, te.Full)
				case searchCtx != nil && searchCtx.Err() != nil &&
					errors.Is(is.err, context.DeadlineExceeded):
					// The crawl deadline caught this query mid-search.
					// There is no time left to retry it, so it is
					// forfeited and attributed to the deadline; the
					// interface never billed the aborted attempt
					// (deepweb.Charged), so the budget unit is refunded.
					// Not an interface-health signal: the clock ran out,
					// the backend did nothing wrong.
					attempts := maxAttempts
					if st != nil {
						st.attempts++
						attempts = st.attempts
					}
					ir.counting.Refund()
					rep.Refunded++
					env.Obs.Refunded(is.q.Key())
					rep.Forfeited++
					rep.DeadlineExhausted++
					rep.ForfeitedQueries = append(rep.ForfeitedQueries, is.q.Key())
					env.Obs.Forfeited(is.q.Key(), attempts, is.err)
					env.Obs.DeadlineForfeited(is.q.Key(), attempts)
					if ir.metrics != nil {
						ir.metrics.Forfeits.Inc()
					}
					if sink != nil {
						if err := sink.QueryForfeited(is.q, attempts, false, t.res); err != nil {
							return nil, sinkErr(err)
						}
					}
					continue
				default:
					if ir.metrics != nil {
						ir.metrics.Errors.Inc()
					}
					if health != nil {
						health.onFailure(ir.idx)
						noteHealth(ir)
					}
					chargedFail := deepweb.Charged(is.err)
					if !chargedFail {
						// The interface never billed this failure (429,
						// open circuit, cancellation) — a query that
						// never executed must not consume budget.
						ir.counting.Refund()
						rep.Refunded++
						env.Obs.Refunded(is.q.Key())
					}
					attempts := maxAttempts
					requeued := false
					if st != nil {
						st.attempts++
						attempts = st.attempts
						requeued = requeue(ir, st, is.fromHeap)
					}
					if requeued {
						rep.Requeued++
						env.Obs.Requeued(is.q.Key(), attempts, is.err)
						if ir.metrics != nil {
							ir.metrics.Requeues.Inc()
						}
						if sink != nil {
							if err := sink.QueryRequeued(is.q, attempts, chargedFail, t.res); err != nil {
								return nil, sinkErr(err)
							}
						}
					} else {
						rep.Forfeited++
						rep.ForfeitedQueries = append(rep.ForfeitedQueries, is.q.Key())
						env.Obs.Forfeited(is.q.Key(), attempts, is.err)
						if ir.metrics != nil {
							ir.metrics.Forfeits.Inc()
						}
						if sink != nil {
							if err := sink.QueryForfeited(is.q, attempts, chargedFail, t.res); err != nil {
								return nil, sinkErr(err)
							}
						}
					}
					continue
				}
			}
			if rep != nil {
				rep.Absorbed++
				rep.dropForfeit(is.q.Key())
			}
			if retryBudget != nil {
				retryBudget.Deposit()
			}
			if health != nil && health.degraded(ir.idx) {
				health.onSuccess(ir.idx)
				noteHealth(ir)
			}
			recs := is.recs
			if federated && len(recs) > 0 {
				// Hidden IDs are namespaced per source: distinct
				// interfaces may assign the same ID to different entities,
				// and Result.Crawled is keyed by ID. The records are
				// cloned rather than retagged in place — the searcher may
				// share result slices across calls (Faulty's stale-page
				// cache does). Entity-level dedupe across interfaces
				// still happens downstream: the Joiner matches on values,
				// and first-match-wins coverage keeps one match per local
				// record no matter how many interfaces return the entity.
				remapped := make([]*relational.Record, len(recs))
				for j, h := range recs {
					remapped[j] = &relational.Record{ID: h.ID*nIf + ir.idx, Values: h.Values}
				}
				recs = remapped
			}
			newly := t.absorbSized(is.q, is.benefit, recs, resultSize, ir.k, ir.idx)
			if sink != nil {
				if err := sink.StepAbsorbed(t.res, t.res.Steps[len(t.res.Steps)-1], newly); err != nil {
					return nil, sinkErr(err)
				}
			}
			if s.cfg.OnlineCalibration && st != nil && len(st.qD) > 0 {
				bkt := bucketOf(len(st.qD))
				old := ir.calib[bkt]
				ir.calib[bkt].sum += float64(len(newly))
				ir.calib[bkt].count++
				// Rebuild priorities when a bucket first becomes
				// usable or its mean moves materially; rare once
				// calibrated.
				cur := ir.calib[bkt]
				curMean := cur.sum / float64(cur.count)
				switch {
				case cur.count == calibMinObs:
					ir.sel.heap.Reprioritize(ir.rescore)
				case old.count >= calibMinObs:
					oldMean := old.sum / float64(old.count)
					if curMean > 1.3*oldMean || curMean < 0.7*oldMean {
						ir.sel.heap.Reprioritize(ir.rescore)
					}
				}
			}
			// Coverage is global: a record covered through any interface
			// leaves every interface's consideration set.
			for _, r2 := range runs {
				r2.sel.removeBatch(newly)
			}
			// §4.2 ΔD prediction: a solid query (result smaller than
			// k) returns everything matching it, so any record of
			// q(D) it did not cover cannot be in H — drop it from
			// consideration. resultSize is the interface's true match
			// count even when the page was truncated. Solidity — and
			// the removal — are strictly per issuing interface: a
			// record absent from H_i may well be in H_j.
			solid := resultSize < ir.k
			if solid && !s.cfg.DisableDeltaDRemoval {
				if st != nil {
					ir.sel.removeBatchU32(st.qD)
				}
			}
		}
		if sink != nil {
			if err := sink.RoundCompleted(t.res); err != nil {
				return nil, sinkErr(err)
			}
		}
	}

	s.HeapRepushes = 0
	for _, ir := range runs {
		s.HeapRepushes += ir.sel.heap.Repushes
	}
	if rep != nil {
		if anyBreaker {
			trips := tripsBase
			for _, ir := range runs {
				if ir.br != nil {
					trips += ir.br.Trips()
				}
			}
			rep.BreakerTrips = trips
		}
		t.res.Resilience = rep
	}
	return t.res, nil
}

// eagerArgmax scans every live query state and returns the one with the
// largest benefit (ties by smaller query ID), mirroring the lazy queue's
// selection semantics at O(|Q|) per call.
func eagerArgmax(states []*qstate, benefitOf func(*qstate) float64) (int, float64, bool) {
	best := -1
	bestBenefit := 0.0
	for qid, st := range states {
		if st == nil || st.issued || st.freqD <= 0 {
			continue
		}
		b := benefitOf(st)
		if best == -1 || b > bestBenefit {
			best, bestBenefit = qid, b
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return best, bestBenefit, true
}
