package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/enrich"
	"smartcrawl/internal/federate"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
)

// Request describes one enrichment crawl — the engine-level form of the
// smartcrawl CLI flags and of a crawld job spec. Exactly one of Hidden,
// URL, and Interfaces selects the search interface.
type Request struct {
	// Local is the table to enrich; it is mutated in place by Run.
	Local *relational.Table
	// Hidden is a CSV/JSONL path served through the in-process simulator.
	Hidden string
	// URL is a hiddenserver base URL (remote interface).
	URL string
	// Interfaces is a federated interface spec (federate.ParseSpecs
	// grammar); it replaces Hidden/URL.
	Interfaces string

	// Budget is the query budget. With TotalBudget set it is the
	// lifetime budget of the job: queries already charged per the
	// recovered checkpoint are subtracted before crawling, and a fully
	// spent job re-runs as a no-op that just re-derives its outputs.
	// Without TotalBudget it is this session's budget on top of whatever
	// a resumed checkpoint already spent (the CLI semantics).
	Budget      int
	TotalBudget bool

	K            int     // top-k limit (simulated interface)
	RankColumn   int     // ranking column (simulated); negative = hash
	Theta        float64 // Bernoulli sampling ratio (simulated); 0 = sample-free
	SampleTarget int     // keyword-sample size target (remote); must be > 0
	Strategy     string  // smart | simple | online | naive | full
	Fuzzy        float64 // Jaccard threshold in [0, 1]; 0 = exact matching
	// EnrichColumns names the hidden columns to append; empty auto-maps
	// every unclaimed hidden column (requires a schema source).
	EnrichColumns []string

	Checkpoint string // checkpoint path; empty disables durability
	WAL        string // journal path (requires Checkpoint)
	Autosave   int    // compaction cadence in absorbed steps
	WALSync    string // journal fsync policy (durable.Sync*)

	Workers int    // crawl pipeline worker-pool size
	Batch   int    // queries selected per round; 0 defaults to Workers
	Seed    uint64 // sampling / baseline seed

	// CorpusCache, when set, is the path of the on-disk corpus cache for
	// Local (dictionary + block-compressed inverted index, docs/DESIGN.md
	// "Out-of-core corpus"). An existing cache is verified and
	// memory-mapped; a missing one is built first by streaming Local
	// through the bounded-memory ingester. Selection then resolves q(D)
	// through the mapped index instead of building one on the heap —
	// results are byte-identical to the in-memory path.
	CorpusCache string
	// Shards partitions record-side selection state across this many
	// shards processed in parallel during batch removal — a wall-clock
	// knob for large local tables. Results are byte-identical at any
	// value; 0 or 1 keeps sequential removal.
	Shards int
	// PoolSample, when > 0, mines the query pool over a reservoir sample
	// of this many records (seeded by Seed) with every candidate's
	// support recounted exactly against the corpus index, instead of
	// running FP-Growth over the full table. Requires CorpusCache (the
	// recount runs against its index).
	PoolSample int

	Rate    float64 // client-side polite rate, queries/sec; 0 unpaced
	Burst   int     // token-bucket burst (with Rate)
	Retries int     // transient-failure retries per query

	Faults      string // fault-injection spec; empty disables
	FaultSeed   uint64 // fault schedule seed
	MaxAttempts int    // requeue ceiling; 0 = auto (3 with faults)
	// Breaker is the circuit-breaker consecutive-failure threshold;
	// negative = auto (5 with faults, else off), 0 = off.
	Breaker int

	// Deadline, when positive, is the end-to-end wall-clock budget of the
	// crawl: selection stops once it expires, in-flight queries fail fast,
	// and interrupted queries are forfeited with their budget refunded.
	Deadline time.Duration
	// QueryTimeout, when positive, bounds each dispatched search attempt
	// (retries included) independently of the crawl deadline.
	QueryTimeout time.Duration
	// RetryBudget, when positive, caps requeues at this ratio of
	// dispatches (a Finagle-style retry token bucket): a failing
	// interface cannot amplify load via retry storms.
	RetryBudget float64
	// Health enables per-interface health scoring in federated crawls:
	// allocation bids are scaled by an EWMA success score and degraded
	// interfaces receive periodic recovery probes.
	Health bool

	// Context, when non-nil, lets the crawl be interrupted gracefully:
	// selection stops at the next round boundary, in-flight queries
	// drain, and the partial (resumable) state is checkpointed.
	Context context.Context
	// Obs, when non-nil, observes the whole run. Nil disables
	// instrumentation.
	Obs *obs.Obs
	// Log receives human-readable progress lines (the CLI passes
	// stderr); nil discards them.
	Log io.Writer
	// OnStep, when non-nil, is invoked after every issued query with the
	// recorded step — the progress feed of a streaming job. It runs on
	// the crawl goroutine; keep it fast.
	OnStep func(crawler.Step)
	// CrashPoint arms deterministic crash injection in the durability
	// path (durable.ParseCrashPoint); empty disables. Both cmd surfaces
	// wire it to the SMARTCRAWL_CRASH_AT environment variable.
	CrashPoint string
}

// Defaults returns a Request carrying the smartcrawl CLI flag defaults; a
// wire job spec overrides the fields it sets.
func Defaults() Request {
	return Request{
		Budget:       100,
		K:            50,
		RankColumn:   -1,
		Theta:        0.005,
		SampleTarget: 200,
		Strategy:     "smart",
		Autosave:     durable.DefaultEvery,
		WALSync:      durable.SyncCompact,
		Workers:      1,
		Seed:         42,
		Burst:        10,
		Retries:      5,
		FaultSeed:    1,
		Breaker:      -1,
	}
}

// Outcome is the result of a completed Run.
type Outcome struct {
	// Report summarizes the enrichment; Result is the full crawl trace.
	Report *enrich.Report
	Result *crawler.Result
	// Local is the enriched table (the Request's table, mutated).
	Local *relational.Table
	// HiddenSchema is the hidden-side schema the enrichment used.
	HiddenSchema []string
	// Recovered reports what the durability layer replayed at open, nil
	// without a checkpoint.
	Recovered *durable.Recovered
	// Interrupted reports that the Request context was cancelled: the
	// result is partial and — with a checkpoint — resumable.
	Interrupted bool
}

// Validate checks the request for the misuse errors the CLI reports
// before touching the filesystem.
func (req *Request) Validate() error {
	if req.Local == nil || req.Local.Len() == 0 {
		return errors.New("engine: empty local table")
	}
	if req.Interfaces != "" {
		if req.Hidden != "" || req.URL != "" {
			return errors.New("engine: Interfaces replaces Hidden/URL")
		}
		if req.Faults != "" || req.Rate > 0 || req.Breaker >= 0 {
			return errors.New("engine: federated crawls take faults/rate/breaker per interface (inside the spec)")
		}
	} else if (req.Hidden == "") == (req.URL == "") {
		return errors.New("engine: exactly one of Hidden and URL is required")
	}
	specs, err := req.specs()
	if err != nil {
		return err
	}
	// Run enriches through the hidden schema, which only a hidden table
	// or a remote interface's sample supplies.
	if !slices.ContainsFunc(specs, func(sp federate.Spec) bool { return sp.Hidden != "" || sp.SampleTarget > 0 }) {
		return errors.New("engine: no interface supplies the hidden schema (a hidden table, or a remote interface with SampleTarget > 0)")
	}
	switch req.Strategy {
	case "smart", "simple", "online":
	case "naive", "full":
		if req.Checkpoint != "" {
			return errors.New("engine: checkpoints support the smart/simple/online strategies")
		}
		if req.Interfaces != "" {
			return errors.New("engine: federation supports the smart/simple/online strategies")
		}
	default:
		return fmt.Errorf("engine: unknown strategy %q", req.Strategy)
	}
	if req.Workers < 1 {
		return errors.New("engine: Workers must be >= 1")
	}
	if req.Batch < 0 {
		return errors.New("engine: Batch must be >= 0")
	}
	if req.Budget < 0 {
		return errors.New("engine: Budget must be >= 0")
	}
	if req.Retries < 0 {
		return errors.New("engine: Retries must be >= 0")
	}
	if req.Rate < 0 {
		return errors.New("engine: Rate must be >= 0")
	}
	if !(req.Fuzzy >= 0 && req.Fuzzy <= 1) {
		return errors.New("engine: Fuzzy must be in [0, 1]")
	}
	if req.Deadline < 0 {
		return errors.New("engine: Deadline must be >= 0")
	}
	if req.QueryTimeout < 0 {
		return errors.New("engine: QueryTimeout must be >= 0")
	}
	if req.RetryBudget < 0 {
		return errors.New("engine: RetryBudget must be >= 0")
	}
	if req.Health && req.Interfaces == "" {
		return errors.New("engine: Health scoring requires a federated crawl (Interfaces)")
	}
	if req.Shards < 0 {
		return errors.New("engine: Shards must be >= 0")
	}
	if req.PoolSample < 0 {
		return errors.New("engine: PoolSample must be >= 0")
	}
	if req.PoolSample > 0 && req.CorpusCache == "" {
		return errors.New("engine: PoolSample requires CorpusCache (exact supports are recounted against its index)")
	}
	if req.WAL != "" && req.Checkpoint == "" {
		return errors.New("engine: WAL requires Checkpoint (the journal compacts into it)")
	}
	switch req.WALSync {
	case "", durable.SyncAlways, durable.SyncRound, durable.SyncCompact:
	default:
		return fmt.Errorf("engine: WALSync must be %s, %s, or %s",
			durable.SyncAlways, durable.SyncRound, durable.SyncCompact)
	}
	if req.Autosave < 0 {
		return errors.New("engine: Autosave must be >= 0")
	}
	if req.TotalBudget && req.Checkpoint == "" {
		return errors.New("engine: TotalBudget requires Checkpoint (charged queries are recovered from it)")
	}
	return nil
}

// specs returns the interface specs the request crawls: the parsed
// Interfaces, or the one spec of a Hidden or URL request. The translation
// keeps the single-interface rules: the sample comes from Theta for a
// simulated backend and from SampleTarget for a remote one, Retries apply
// only to a paced or faulted interface, and a negative Breaker means 5
// with faults, else off.
func (req *Request) specs() ([]federate.Spec, error) {
	if req.Interfaces != "" {
		return federate.ParseSpecs(req.Interfaces)
	}
	sp := federate.Spec{
		Hidden:     req.Hidden,
		URL:        req.URL,
		K:          req.K,
		RankColumn: req.RankColumn,
		Seed:       req.Seed,
		Faults:     req.Faults,
		FaultSeed:  req.FaultSeed,
		Rate:       req.Rate,
		Burst:      req.Burst,
		Breaker:    req.Breaker,
	}
	if req.URL != "" {
		sp.SampleTarget = req.SampleTarget
	} else {
		sp.Theta = req.Theta
	}
	if req.Rate > 0 || req.Faults != "" {
		sp.Retries = req.Retries
	}
	if sp.Breaker < 0 {
		sp.Breaker = 0
		if req.Faults != "" {
			sp.Breaker = 5
		}
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return []federate.Spec{sp}, nil
}
