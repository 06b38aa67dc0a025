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
	// ifaces is the interface set: the one NewSmart builds from
	// env.Searcher and the config's Sample, Estimator and Breaker, or the
	// federation NewFederatedSmart was given. Estimators are defaulted.
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
	h := Interface{Searcher: env.Searcher, Sample: cfg.Sample, Estimator: cfg.Estimator, Breaker: cfg.Breaker}
	if err := h.defaults(cfg.OnlineCalibration, "crawler: "); err != nil {
		return nil, err
	}
	return &Smart{env: env, cfg: cfg, ifaces: []Interface{h}}, nil
}

// defaults applies the estimator default shared by NewSmart and
// NewFederatedSmart (Biased with a sample, Frequency without) and checks
// the interface's sample against it; errors start with prefix.
func (h *Interface) defaults(online bool, prefix string) error {
	if h.Estimator == nil {
		if h.Sample != nil {
			h.Estimator = estimator.Biased{}
		} else {
			h.Estimator = estimator.Frequency{}
		}
	}
	if h.Sample == nil {
		if _, ok := h.Estimator.(estimator.Frequency); !ok {
			return errors.New(prefix + "sample-based estimators require a sample")
		}
	} else if h.Sample.Theta <= 0 {
		return fmt.Errorf("%ssample has non-positive theta %v", prefix, h.Sample.Theta)
	}
	if online && h.Sample != nil {
		return errors.New(prefix + "OnlineCalibration replaces the sample; supply one or the other")
	}
	return nil
}

// Name implements Crawler.
func (s *Smart) Name() string {
	if len(s.ifaces) > 1 {
		return fmt.Sprintf("smartcrawl-federated-%d", len(s.ifaces))
	}
	if s.cfg.OnlineCalibration {
		return "smartcrawl-online"
	}
	est := s.ifaces[0].Estimator
	if _, ok := est.(estimator.Frequency); ok {
		return "smartcrawl-simple"
	}
	return "smartcrawl-" + est.Name()
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

	sel          *selection
	est          estimator.Estimator
	theta, alpha float64
	online       bool // SmartConfig.OnlineCalibration
	eager        bool // SmartConfig.EagerSelection
	calib        [64]bucketStat

	// metrics is the interface's obs handle — a private, unregistered one
	// when obs is off or the crawl has a single interface, so updates
	// need no guard and no snapshot ever shows them.
	metrics *obs.IfaceMetrics
}

// benefit is the estimated benefit of issuing st's query here next.
func (ir *ifaceRun) benefit(st *qstate) float64 {
	if ir.online {
		b := ir.calib[bucketOf(len(st.qD))]
		if b.count >= calibMinObs {
			// Bucket mean, scaled by the still-uncovered fraction of
			// this query's records.
			return (b.sum / float64(b.count)) * float64(st.freqD) / float64(len(st.qD))
		}
		if f := float64(st.freqD); f < float64(ir.k) {
			return f
		}
		return float64(ir.k) // uncalibrated: QSel-Simple capped at k
	}
	return ir.est.Benefit(estimator.Stats{
		FreqD:       st.freqD,
		FreqSample:  st.freqS,
		MatchSample: st.matchS,
		Theta:       ir.theta,
		K:           ir.k,
		Alpha:       ir.alpha,
	})
}

// rescore is the lazy queue's rescoring callback: a live query's fresh
// benefit, or keep=false for an issued or exhausted one.
func (ir *ifaceRun) rescore(qid int) (float64, bool) {
	st := ir.sel.states[qid]
	if st == nil || st.issued || st.freqD <= 0 {
		return 0, false
	}
	return ir.benefit(st), true
}

// next selects the best unissued query: a lazy-queue pop, or a full argmax
// rescan under EagerSelection.
func (ir *ifaceRun) next() (int, float64, bool) {
	if ir.eager {
		return eagerArgmax(ir.sel.states, ir.benefit)
	}
	return ir.sel.heap.Pop(ir.rescore)
}

// retire marks a query issued without popping it — a step replayed on
// resume, or a replayed pending query. Its heap entry stays; marking it
// stale makes the issued filter drop it at the next pop instead of
// re-issuing a clean entry that was never rescored.
func (ir *ifaceRun) retire(st *qstate) {
	st.issued = true
	if !ir.eager {
		ir.sel.heap.Invalidate(st.q.ID)
	}
}

// release returns a selected query to the pool. A heap entry that still
// holds it (a replayed pending query is issued without a pop) is marked
// stale; an entry already gone — popped, or dropped by a Reprioritize
// while the query was in flight — is pushed anew at priority prio().
func (ir *ifaceRun) release(st *qstate, prio func() float64) {
	st.issued = false
	switch {
	case ir.eager:
	case ir.sel.heap.Contains(st.q.ID):
		ir.sel.heap.Invalidate(st.q.ID)
	default:
		ir.sel.heap.Push(st.q.ID, prio())
	}
}

// observe adds one realized benefit (newly covered records) to st's
// online-calibration bucket and reports whether priorities need a
// rebuild: the bucket just became usable or its mean moved materially —
// rare once calibrated. A no-op without online calibration.
func (ir *ifaceRun) observe(st *qstate, newly int) bool {
	if !ir.online || len(st.qD) == 0 {
		return false
	}
	b := &ir.calib[bucketOf(len(st.qD))]
	old := *b
	b.sum += float64(newly)
	b.count++
	switch {
	case b.count == calibMinObs:
		return true
	case old.count >= calibMinObs:
		oldMean, curMean := old.sum/float64(old.count), b.sum/float64(b.count)
		return curMean > 1.3*oldMean || curMean < 0.7*oldMean
	}
	return false
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

// issue is one selected query on its way through a round.
type issue struct {
	st      *qstate // nil when a resumed pending query left the pool
	q       deepweb.Query
	benefit float64
	recs    []*relational.Record
	err     error
	// undispatched mirrors deepweb.Outcome.Undispatched: the searcher
	// never saw this query (shutdown drain or deadline expiry caught it
	// before a worker claimed it), so it was never charged.
	undispatched bool
}

// crawlRun is the state of one Smart.Run call, shared by its stages:
// start, then per round allocate → selectRound → dispatch → settle, then
// finish.
type crawlRun struct {
	s     *Smart
	env   *Env
	cfg   *SmartConfig
	t     *tracker
	meter *deepweb.Budget // one meter, n charging wrappers
	// searchCtx carries ONLY the crawl deadline (nil without one): user
	// cancellation (cfg.Context) stays out of it so graceful shutdown
	// keeps its drain semantics — in-flight queries finish and are
	// absorbed — while deadline expiry aborts them.
	searchCtx context.Context

	pool      *querypool.Pool
	runs      []*ifaceRun
	federated bool
	batch     int

	// The resilience policy (SmartConfig.MaxAttempts, Breaker, Deadline,
	// RetryBudget, Health). rep is the live report; a non-resilient run
	// keeps a private one that is never published, so the merge stage
	// updates it unconditionally.
	maxAttempts int
	resilient   bool
	rep         *Resilience
	tripsBase   int
	anyBreaker  bool
	retry       *deepweb.RetryBudget
	health      *healthState
	sink        DurabilitySink // noSink when the config has none

	// pending is the unresolved tail of a crashed session's last round
	// (SmartConfig.ResumePending), re-issued before any fresh selection.
	pending []PendingQuery

	// Round scratch, allocated once and reused every round: the loop runs
	// thousands of rounds and per-round make calls were measurable. Safe
	// because every consumer finishes with a slice inside the round — the
	// dispatcher reads its input before returning, and
	// DurabilitySink.RoundSelected must copy what it retains.
	round  []issue
	intent []PendingQuery
	qs     []deepweb.Query
	cands  []ifaceCand
}

// Run implements Crawler, executing Algorithm 4 generalized over the
// interface set: generate the pool once, build per-interface selection
// state, then round by round allocate the shared budget to the interface
// whose best query promises the largest marginal benefit, issue the round
// there, cover records globally, and replay §4.2 removals against the
// issuing interface until the budget or every pool is exhausted.
func (s *Smart) Run(budget int) (*Result, error) {
	r := &crawlRun{s: s, env: s.env, cfg: &s.cfg, t: newTracker(s.env), meter: deepweb.NewBudget(budget)}
	if s.cfg.Deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Deadline)
		defer cancel()
		r.searchCtx = ctx
	}
	if err := r.start(); err != nil {
		return nil, err
	}
	defer r.env.Obs.Phase("crawl_loop")()
	for r.live() {
		ir, held, err := r.allocate()
		switch {
		case err != nil:
			return nil, err
		case held:
			continue
		case ir == nil:
			return r.finish(), nil // every interface's pool is exhausted
		}
		round := r.selectRound(ir)
		if len(round) == 0 {
			break
		}
		if err := r.dispatch(ir, round); err != nil {
			return nil, err
		}
		if err := r.settle(ir, round); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// start is the setup stage: generate the pool, build every interface's
// runtime and selection state, replay a resumed session, and fix the
// resilience policy.
func (r *crawlRun) start() error {
	cfg, env, ifaces := r.cfg, r.env, r.s.ifaces
	r.federated = len(ifaces) > 1
	r.batch = cfg.BatchSize
	if r.batch < 1 {
		r.batch = 1
	}
	workers := cfg.Concurrency
	if workers < 1 {
		workers = r.batch
	}
	poolCfg := cfg.PoolConfig
	if poolCfg.Workers == 0 {
		poolCfg.Workers = workers
	}
	if env.Corpus != nil && poolCfg.Index == nil {
		// A sampled pool recounts its candidates against the corpus
		// cache's index in one batch.
		poolCfg.Index = env.Corpus.Inv
	}
	stopPool := env.Obs.Phase("pool_generate")
	r.pool = querypool.Generate(env.Local, env.Tokenizer, poolCfg)
	stopPool()
	r.s.PoolSize = r.pool.Len()

	r.runs = make([]*ifaceRun, len(ifaces))
	for i := range ifaces {
		r.runs[i] = r.newIfaceRun(i, &ifaces[i], workers)
		r.anyBreaker = r.anyBreaker || ifaces[i].Breaker != nil
	}
	if r.federated {
		r.t.names = make([]string, len(r.runs))
		r.t.ifm = make([]*obs.IfaceMetrics, len(r.runs))
		for i, ir := range r.runs {
			r.t.names[i], r.t.ifm[i] = ir.name, ir.metrics
		}
	}
	if prev := cfg.Resume; prev != nil {
		if err := r.replay(prev); err != nil {
			return err
		}
	}
	r.policy()
	r.sink = cfg.Durability
	if r.sink == nil {
		r.sink = noSink{}
	}
	r.pending = append([]PendingQuery(nil), cfg.ResumePending...)
	r.round = make([]issue, 0, r.batch)
	r.intent = make([]PendingQuery, 0, r.batch)
	r.qs = make([]deepweb.Query, 0, r.batch)
	r.cands = make([]ifaceCand, 0, len(r.runs))
	return nil
}

// newIfaceRun builds interface i's runtime: its charging searcher and
// dispatcher, its benefit inputs, and its selection state. Estimator
// Benefit calls are the selection hot path; the instrumented wrapper adds
// one atomic count per call and nothing else, so the benefits — and
// therefore selection order — are bit-identical.
func (r *crawlRun) newIfaceRun(i int, h *Interface, workers int) *ifaceRun {
	env := r.env
	ir := &ifaceRun{idx: i, name: h.Name, k: h.Searcher.K(), br: h.Breaker, est: h.Estimator,
		online: r.cfg.OnlineCalibration, eager: r.cfg.EagerSelection, metrics: &obs.IfaceMetrics{}}
	ir.counting = deepweb.NewCountingOn(h.Searcher, r.meter)
	ir.disp = &deepweb.Dispatcher{
		S:             ir.counting,
		Workers:       workers,
		SearchContext: r.searchCtx,
		Timeout:       r.cfg.QueryTimeout,
		Obs:           env.Obs,
	}
	// Sample-derived estimator constants; the sample's interned indexes
	// and match tables are built inside newSelection.
	if h.Sample != nil && h.Sample.Len() > 0 {
		ir.theta = h.Sample.Theta
		if r.cfg.AlphaFallback {
			ir.alpha = ir.theta * float64(env.Local.Len()) / float64(h.Sample.Len())
		}
	}
	if env.Obs.Enabled() {
		ir.est = estimator.Instrumented{E: ir.est, Obs: env.Obs}
	}
	// Pool resolution, the interned inverted/forward indexes, the
	// precomputed sample-match counts, and the initial priorities —
	// Figure 3's index structures on token IDs (see selection.go).
	ir.sel = newSelection(env, r.pool, selectionStats{smp: h.Sample, joiner: r.t.joiner}, workers, r.cfg.Shards, ir.benefit)
	if r.federated && env.Obs.Enabled() {
		ir.metrics = env.Obs.Iface(ir.name)
	}
	return ir
}

// replay applies a previous session's effects before selecting: restore
// the tracker's cumulative state, replay coverage removals against every
// interface, then retire each step's query — with its §4.2 removal and
// calibration observation — against the interface that issued it. Replay
// is the largest removal batch of a crawl's lifetime, so it benefits most
// from sharding.
func (r *crawlRun) replay(prev *Result) error {
	res, n := r.t.res, r.env.Local.Len()
	if len(prev.Covered) != n {
		return fmt.Errorf("crawler: resume checkpoint covers %d records, local database has %d",
			len(prev.Covered), n)
	}
	copy(res.Covered, prev.Covered)
	res.CoveredCount = prev.CoveredCount
	res.QueriesIssued = prev.QueriesIssued
	res.Steps = append(res.Steps, prev.Steps...)
	for id, h := range prev.Crawled {
		res.Crawled[id] = h
	}
	for d, h := range prev.Matches {
		res.Matches[d] = h
	}
	coveredIDs := make([]int, 0, prev.CoveredCount)
	for d, covered := range prev.Covered {
		if covered {
			coveredIDs = append(coveredIDs, d)
		}
	}
	for _, ir := range r.runs {
		ir.sel.removeBatch(coveredIDs)
	}
	for _, step := range prev.Steps {
		if step.Iface < 0 || step.Iface >= len(r.runs) {
			return fmt.Errorf("crawler: resume step is tagged interface %d; run has %d interfaces",
				step.Iface, len(r.runs))
		}
		ir := r.runs[step.Iface]
		q := r.pool.Find(step.Query)
		if q == nil || ir.sel.states[q.ID] == nil {
			continue // pool drift; the query can no longer be selected anyway
		}
		st := ir.sel.states[q.ID]
		ir.retire(st)
		r.dropDeltaD(ir, st, step.ResultSize)
		// Replaying the calibration observations makes a resumed online
		// crawl select exactly as an uninterrupted one.
		ir.observe(st, step.NewlyCovered)
	}
	if r.cfg.OnlineCalibration {
		for _, ir := range r.runs {
			ir.sel.heap.Reprioritize(ir.rescore)
		}
	}
	return nil
}

// policy fixes the run's graceful-degradation policy (see
// SmartConfig.MaxAttempts/Breaker): failed queries are requeued or
// forfeited instead of aborting the run, and the report accounts for
// every dispatched query.
func (r *crawlRun) policy() {
	cfg := r.cfg
	r.maxAttempts = cfg.MaxAttempts
	if r.maxAttempts < 1 && (r.anyBreaker || cfg.Deadline > 0) {
		r.maxAttempts = 1
	}
	r.resilient = r.maxAttempts > 0
	var carried *Resilience
	if cfg.Resume != nil {
		carried = cfg.Resume.Resilience.clone()
	}
	r.rep = &Resilience{}
	if r.resilient {
		if carried != nil {
			r.rep = carried
		}
		r.tripsBase = r.rep.BreakerTrips
		// The live report rides inside the Result from the start, not
		// only at return: the durability sink snapshots it mid-crawl, and
		// a snapshot missing the failure accounting would under-count the
		// settled charge on recovery (durable.Recover derives it as
		// issued + requeued + forfeited − refunded).
		r.t.res.Resilience = r.rep
	} else {
		// A non-resilient resumed run still carries the historical report
		// forward, for the same recovery-accounting reason — and so the
		// failures an earlier session absorbed stay reported.
		r.t.res.Resilience = carried
	}
	// Retry budget deposits and withdrawals happen only in the merge stage,
	// on the crawl loop's goroutine, in selection order.
	if r.resilient && cfg.RetryBudget > 0 {
		r.retry = deepweb.NewRetryBudget(cfg.RetryBudget, 0)
	}
	// Health scoring is federated only: with one interface there is no
	// allocation choice to steer.
	if r.federated && cfg.Health != nil {
		r.health = newHealthState(*cfg.Health, len(r.runs))
		for _, ir := range r.runs {
			ir.metrics.HealthScore.Set(1000)
		}
	}
}

// live reports whether another round may start: budget and something to
// select remain, and neither a graceful shutdown (stop at the round
// boundary) nor the crawl deadline has ended the crawl.
func (r *crawlRun) live() bool {
	if r.meter.Exhausted() || (!r.anyRemaining() && len(r.pending) == 0) {
		return false
	}
	if ctx := r.cfg.Context; ctx != nil && ctx.Err() != nil {
		return false
	}
	return r.searchCtx == nil || r.searchCtx.Err() == nil
}

func (r *crawlRun) anyRemaining() bool {
	for _, ir := range r.runs {
		if ir.sel.remaining > 0 {
			return true
		}
	}
	return false
}

// admit is the one breaker gate: it reports whether ir's breaker lets a
// round through. While the circuit is open each held round advances the
// breaker's count-based cooldown and counts as a hold (and a health
// failure); the round that half-opens it proceeds as a single-query probe.
func (r *crawlRun) admit(ir *ifaceRun) bool {
	if ir.br == nil || ir.br.Allow() {
		return true
	}
	r.rep.BreakerHolds++
	ir.metrics.Holds.Inc()
	r.healthFailure(ir)
	return false
}

// allocate grants the round to an interface. A replayed crashed round goes
// back to the interface that owned it; a single-interface crawl has no
// choice to make (and skips the allocator entirely — no Peek, no alloc
// event); a federated round goes to the allocator. held reports a round a
// breaker held; a nil interface without held means every pool is
// exhausted.
func (r *crawlRun) allocate() (ir *ifaceRun, held bool, err error) {
	switch {
	case len(r.pending) > 0:
		pi := r.pending[0].Iface
		if pi < 0 || pi >= len(r.runs) {
			return nil, false, fmt.Errorf("crawler: recovered pending round is tagged interface %d; run has %d interfaces", pi, len(r.runs))
		}
		ir = r.runs[pi]
	case len(r.runs) == 1:
		ir = r.runs[0]
	default:
		ir, held = r.allocFederated()
		return ir, held, nil
	}
	if !r.admit(ir) {
		return nil, true, nil
	}
	return ir, false, nil
}

// allocFederated grants the round to the live interface whose best clean
// query promises the largest marginal benefit (health-scaled when scoring
// is on), ties broken by smaller interface index so allocation is
// deterministic. Peek performs exactly the lazy cleaning a Pop would, so
// ranking does no throwaway work. Breakers are consulted in rank order, so
// an open circuit on the best interface does not starve the healthy ones;
// if every live interface is held, the round is skipped and each hold
// advances its breaker's cooldown.
func (r *crawlRun) allocFederated() (ir *ifaceRun, held bool) {
	cands := r.cands[:0]
	for _, c := range r.runs {
		if _, b, ok := c.sel.heap.Peek(c.rescore); ok {
			rank := b
			if r.health != nil {
				rank = b * r.health.score[c.idx]
			}
			cands = append(cands, ifaceCand{c, b, rank})
		}
	}
	benefit, probe := 0.0, false
	if r.health != nil {
		// Recovery probe: a degraded interface that has lost ProbeEvery
		// consecutive rounds force-wins this one (lowest interface index
		// among those due), breaker permitting — the score only recovers
		// through successes, and successes need traffic.
		pi := -1
		for j, c := range cands {
			if r.health.probeDue(c.ir.idx) && (pi == -1 || c.ir.idx < cands[pi].ir.idx) {
				pi = j
			}
		}
		if pi >= 0 {
			c := cands[pi]
			cands = append(cands[:pi], cands[pi+1:]...)
			if r.admit(c.ir) {
				ir, benefit, probe = c.ir, c.benefit, true
				r.health.sinceProbe[c.ir.idx] = 0
			} else {
				held = true
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
		if !r.admit(c.ir) {
			held = true
			continue
		}
		ir, benefit = c.ir, c.benefit
	}
	if ir == nil {
		return nil, held
	}
	if r.health != nil {
		// Degraded interfaces that lost this round age toward their
		// recovery probe.
		for _, c := range cands {
			if c.ir != ir && r.health.degraded(c.ir.idx) {
				r.health.sinceProbe[c.ir.idx]++
			}
		}
		if probe {
			ir.metrics.Probes.Inc()
			r.env.Obs.Health(ir.name, r.health.score[ir.idx], true)
		}
	}
	r.env.Obs.Alloc(ir.name, benefit, r.meter.Remaining())
	ir.metrics.Allocs.Inc()
	return ir, false
}

// selectRound pops up to a batch of queries from ir (one while its breaker
// is half-open; never more than the remaining budget, so concurrent issues
// never overshoot b) — or replays the crashed round still pending.
func (r *crawlRun) selectRound(ir *ifaceRun) []issue {
	n := r.batch
	if ir.br != nil && ir.br.State() == deepweb.BreakerHalfOpen {
		n = 1
	}
	if rem := r.meter.Remaining(); rem >= 0 && rem < n {
		n = rem
	}
	round := r.round[:0]
	if len(r.pending) > 0 {
		// Replay the crashed round verbatim: same queries, same benefits,
		// same interface, same order. The pool state may have drifted (a
		// forfeited query whose records were since covered), so a missing
		// qstate is tolerated — the query is still issued, only its live
		// bookkeeping is skipped. A round is journaled as one
		// single-interface intent record, so the pending tail is
		// interface-homogeneous; trim defensively.
		m := 0
		for m < len(r.pending) && r.pending[m].Iface == ir.idx {
			m++
		}
		if n > m {
			n = m
		}
		for _, p := range r.pending[:n] {
			is := issue{q: p.Query, benefit: p.Benefit}
			if q := r.pool.Find(p.Query); q != nil {
				if st := ir.sel.states[q.ID]; st != nil && !st.issued {
					ir.retire(st)
					is.st = st
				}
			}
			round = append(round, is)
		}
		r.pending = r.pending[n:]
		return round
	}
	for len(round) < n {
		qid, benefit, ok := ir.next()
		if !ok {
			break // pool exhausted
		}
		st := ir.sel.states[qid]
		st.issued = true
		round = append(round, issue{st: st, q: st.q.Keywords, benefit: benefit})
	}
	return round
}

// dispatch journals the round's write-ahead intent — before any of it is
// dispatched, so a crash mid-round can re-issue exactly this batch instead
// of re-selecting a different one — and issues it through ir's worker
// pool. Outcomes come back index-aligned with the selection order
// regardless of which worker finished first. Under a cancelled context
// the dispatcher drains: started queries finish, unstarted ones come back
// undispatched before they could be charged.
func (r *crawlRun) dispatch(ir *ifaceRun, round []issue) error {
	r.intent, r.qs = r.intent[:0], r.qs[:0]
	for _, is := range round {
		r.intent = append(r.intent, PendingQuery{Query: is.q, Benefit: is.benefit, Iface: ir.idx})
		r.qs = append(r.qs, is.q)
	}
	if err := sinkErr(r.sink.RoundSelected(r.intent, r.t.res)); err != nil {
		return err
	}
	r.env.Obs.Round(len(round), r.meter.Remaining())
	for i, o := range ir.disp.DispatchCtx(r.cfg.Context, r.qs) {
		round[i].recs, round[i].err, round[i].undispatched = o.Records, o.Err, o.Undispatched
	}
	return nil
}

// settle is the merge stage: it absorbs the round in selection order, so
// runs stay deterministic for any worker count — including every
// degradation decision (requeue, forfeit, refund, breaker feeding), which
// is why none of it happens on the workers. Each query gets exactly one
// fate; DESIGN.md §5 tabulates them. A strict run that hits a failure
// still settles — and journals — the rest of the round, whose searches
// were already paid for, and then returns the first failure without
// completing the round: recovery leaves only the failed queries pending.
func (r *crawlRun) settle(ir *ifaceRun, round []issue) error {
	var aborted error
	for i := range round {
		err := r.settleOne(ir, &round[i])
		var ab *abortError
		switch {
		case errors.As(err, &ab):
			if aborted == nil {
				aborted = err
			}
		case err != nil:
			return err
		}
	}
	if aborted != nil {
		return aborted
	}
	return sinkErr(r.sink.RoundCompleted(r.t.res))
}

// abortError is the failure of a query in a strict (non-resilient) run,
// which ends the crawl once its round is settled.
type abortError struct {
	q   deepweb.Query
	err error
}

func (e *abortError) Error() string { return fmt.Sprintf("crawler: issuing %q: %v", e.q, e.err) }
func (e *abortError) Unwrap() error { return e.err }

func (r *crawlRun) settleOne(ir *ifaceRun, is *issue) error {
	switch {
	case is.undispatched:
		// Returned: shutdown drain or deadline expiry skipped this query
		// before it was issued — never executed, never charged, no journal
		// record. A resumed session finds it still pending in the round
		// intent record. (A deadline-skipped query is NOT a deadline
		// forfeit: nothing was spent on it.)
		if is.st != nil {
			ir.release(is.st, func() float64 { return is.benefit })
		}
		return nil
	case errors.Is(is.err, deepweb.ErrBudgetExhausted):
		r.rep.Dispatched++
		r.rep.BudgetStops++
		return sinkErr(r.sink.BudgetStopped(is.q, r.t.res))
	case is.err != nil && !r.resilient:
		return &abortError{q: is.q, err: is.err}
	}
	r.rep.Dispatched++
	if ir.br != nil {
		ir.br.Record(is.err)
	}
	resultSize := len(is.recs)
	if is.err != nil {
		var te *deepweb.TruncatedError
		if !errors.As(is.err, &te) {
			return r.fail(ir, is)
		}
		// A cut page: absorb the partial records, but judge solidity —
		// and trace the step — on the true matched size, so §4.2 never
		// removes ΔD records on the strength of a truncated result.
		resultSize = te.Full
		r.rep.Truncated++
		r.env.Obs.Truncated(is.q.Key(), te.Returned, te.Full)
	}
	return r.absorb(ir, is, resultSize)
}

// fail settles a failed attempt of a resilient run: a deadline forfeit
// when the crawl deadline caught it mid-search (no time left to retry),
// otherwise a requeue when requeue allows it, otherwise a forfeit. An
// attempt the interface never billed (429, open circuit, cancellation,
// the deadline; see deepweb.Charged) refunds its budget unit — a query
// that never executed must not consume budget. A deadline forfeit is not
// an interface-health signal: the clock ran out, the backend did nothing
// wrong.
func (r *crawlRun) fail(ir *ifaceRun, is *issue) error {
	key := is.q.Key()
	deadline := r.searchCtx != nil && r.searchCtx.Err() != nil && errors.Is(is.err, context.DeadlineExceeded)
	charged := !deadline && deepweb.Charged(is.err)
	if !deadline {
		ir.metrics.Errors.Inc()
		r.healthFailure(ir)
	}
	if !charged {
		ir.counting.Refund()
		r.rep.Refunded++
		r.env.Obs.Refunded(key)
	}
	attempts := r.maxAttempts
	if is.st != nil {
		is.st.attempts++
		attempts = is.st.attempts
	}
	if !deadline && is.st != nil && r.requeue(ir, is.st, key) {
		r.rep.Requeued++
		r.env.Obs.Requeued(key, attempts, is.err)
		ir.metrics.Requeues.Inc()
		return sinkErr(r.sink.QueryRequeued(is.q, attempts, charged, r.t.res))
	}
	r.rep.Forfeited++
	r.rep.ForfeitedQueries = append(r.rep.ForfeitedQueries, key)
	r.env.Obs.Forfeited(key, attempts, is.err)
	if deadline {
		r.rep.DeadlineExhausted++
		r.env.Obs.DeadlineForfeited(key, attempts)
	}
	ir.metrics.Forfeits.Inc()
	return sinkErr(r.sink.QueryForfeited(is.q, attempts, charged, r.t.res))
}

// requeue returns a failed query to its interface's pool for another
// attempt. Its live statistics are recomputed from the considered set
// first: removals during the in-flight window skipped this query (issued
// queries are normally never reconsidered), so freqD/matchS are stale.
// Returns false — forfeit — when attempts are exhausted, nothing the query
// covers is still uncovered, or the retry budget is dry (the cheap checks
// run first so a guaranteed forfeit never burns a token).
func (r *crawlRun) requeue(ir *ifaceRun, st *qstate, key string) bool {
	ir.sel.recompute(st)
	if st.freqD <= 0 || st.attempts >= r.maxAttempts {
		return false
	}
	if r.retry != nil && !r.retry.Withdraw() {
		// The budget is dry: forfeiting here is what caps total attempts
		// near (1+ratio)·dispatches under a sustained outage.
		r.rep.RetryBudgetDenied++
		r.env.Obs.RetryDenied(key)
		return false
	}
	ir.release(st, func() float64 { return ir.benefit(st) })
	return true
}

// absorb settles a query whose results enter coverage: the records are
// matched and covered globally, and the issuing interface learns from the
// outcome (calibration, §4.2 ΔD removal).
func (r *crawlRun) absorb(ir *ifaceRun, is *issue, resultSize int) error {
	r.rep.Absorbed++
	r.rep.dropForfeit(is.q)
	if r.retry != nil {
		r.retry.Deposit()
	}
	r.healthSuccess(ir)
	recs := is.recs
	if r.federated && len(recs) > 0 {
		// Hidden IDs are namespaced per source: distinct interfaces may
		// assign the same ID to different entities, and Result.Crawled is
		// keyed by ID. The records are cloned rather than retagged in place
		// — the searcher may share result slices across calls (Faulty's
		// stale-page cache does). Entity-level dedupe across interfaces
		// still happens downstream: the Joiner matches on values, and
		// first-match-wins coverage keeps one match per local record no
		// matter how many interfaces return the entity.
		remapped := make([]*relational.Record, len(recs))
		for j, h := range recs {
			remapped[j] = &relational.Record{ID: h.ID*len(r.runs) + ir.idx, Values: h.Values}
		}
		recs = remapped
	}
	res := r.t.res
	newly := r.t.absorbSized(is.q, is.benefit, recs, resultSize, ir.k, ir.idx)
	if err := sinkErr(r.sink.StepAbsorbed(res, res.Steps[len(res.Steps)-1], newly)); err != nil {
		return err
	}
	if is.st != nil && ir.observe(is.st, len(newly)) {
		ir.sel.heap.Reprioritize(ir.rescore)
	}
	// Coverage is global: a record covered through any interface leaves
	// every interface's consideration set.
	for _, other := range r.runs {
		other.sel.removeBatch(newly)
	}
	r.dropDeltaD(ir, is.st, resultSize)
	return nil
}

// dropDeltaD is the §4.2 ΔD prediction: a solid query (result smaller than
// k) returns everything matching it, so any record of q(D) it did not
// cover cannot be in H — drop it from consideration. resultSize is the
// interface's true match count even when the page was truncated. Solidity
// — and the removal — are strictly per issuing interface: a record absent
// from H_i may well be in H_j.
func (r *crawlRun) dropDeltaD(ir *ifaceRun, st *qstate, resultSize int) {
	if st != nil && resultSize < ir.k && !r.cfg.DisableDeltaDRemoval {
		ir.sel.removeBatchU32(st.qD)
	}
}

// healthFailure and healthSuccess move an interface's health score when
// scoring is on, and publish it: the obs gauge (milli-units) and a health
// trace event. A success only moves a degraded score, so clean runs never
// publish — scores stay exactly 1.0 and traces stay byte-identical.
func (r *crawlRun) healthFailure(ir *ifaceRun) {
	if r.health != nil {
		r.health.onFailure(ir.idx)
		r.noteHealth(ir)
	}
}

func (r *crawlRun) healthSuccess(ir *ifaceRun) {
	if r.health != nil && r.health.degraded(ir.idx) {
		r.health.onSuccess(ir.idx)
		r.noteHealth(ir)
	}
}

func (r *crawlRun) noteHealth(ir *ifaceRun) {
	sc := r.health.score[ir.idx]
	ir.metrics.HealthScore.Set(int64(sc*1000 + 0.5))
	r.env.Obs.Health(ir.name, sc, false)
}

// finish publishes the run's totals: heap repushes, and breaker trips into
// a resilient run's report.
func (r *crawlRun) finish() *Result {
	r.s.HeapRepushes = 0
	for _, ir := range r.runs {
		r.s.HeapRepushes += ir.sel.heap.Repushes
	}
	if r.resilient {
		if r.anyBreaker {
			trips := r.tripsBase
			for _, ir := range r.runs {
				if ir.br != nil {
					trips += ir.br.Trips()
				}
			}
			r.rep.BreakerTrips = trips
		}
		r.t.res.Resilience = r.rep
	}
	return r.t.res
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
