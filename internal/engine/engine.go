// Package engine assembles and runs one budgeted enrichment crawl
// end-to-end: load inputs, build the search interface (simulated, remote,
// or federated), compose the politeness/fault/breaker stack, recover
// durable state, crawl, enrich, and persist the checkpoint.
//
// It is the shared core behind the two user-facing surfaces: the
// smartcrawl CLI (one process, one crawl) and the crawld daemon (many
// concurrent jobs over one process). Both build a Request — from flags or
// from a wire-submitted job spec — and call Run, so a crawl produces
// byte-identical results whichever surface invoked it.
//
// The package splits along its seams: request.go holds the Request/
// Outcome wire structs, Defaults, and Validate; table.go the table I/O;
// this file the run path itself.
package engine

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/enrich"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/federate"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// doneCrawler serves a fully recovered crawl without issuing a single
// query: a TotalBudget job whose checkpoint already settles the whole
// budget re-derives its outputs from the recovered state alone.
type doneCrawler struct{ res *crawler.Result }

func (d doneCrawler) Name() string                     { return "recovered-complete" }
func (d doneCrawler) Run(int) (*crawler.Result, error) { return d.res, nil }

// Run executes the request end to end. On success the Request's local
// table has been enriched in place and — with a checkpoint configured —
// the final state compacted to disk. On a crawl error with durability
// open, the journal is preserved untruncated for a later recovery.
func Run(req *Request) (*Outcome, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	log := req.Log
	if log == nil {
		log = io.Discard
	}
	o := req.Obs
	tk := tokenize.New()
	local := req.Local

	var fedSpecs []federate.Spec
	if req.Interfaces != "" {
		var err error
		fedSpecs, err = federate.ParseSpecs(req.Interfaces)
		if err != nil {
			return nil, err
		}
	}

	// Assemble the search interface, the sample, and the hidden schema.
	var (
		searcher     deepweb.Searcher
		smp          *sample.Sample
		hiddenSchema []string
		hiddenTable  *relational.Table
		fed          *federate.Federation
	)
	switch {
	case fedSpecs != nil:
		var err error
		fed, err = federate.BuildAll(fedSpecs, local, tk, o)
		if err != nil {
			return nil, err
		}
		hiddenSchema = fed.HiddenSchema()
		for _, t := range fed.Tables {
			if t != nil {
				hiddenTable = t
				break
			}
		}
		names := make([]string, len(fed.Ifaces))
		for i, h := range fed.Ifaces {
			names[i] = h.Name
		}
		fmt.Fprintf(log, "federation: %d interfaces (%s)\n", len(fed.Ifaces), strings.Join(names, ", "))
	case req.Hidden != "":
		var err error
		hiddenTable, err = readTable(req.Hidden, "hidden")
		if err != nil {
			return nil, err
		}
		hiddenSchema = hiddenTable.Schema
		rank := hidden.RankByHash(0x5eed)
		if req.RankColumn >= 0 {
			rank = hidden.RankByNumericColumn(req.RankColumn)
		}
		searcher = hidden.New(hiddenTable, tk, req.K, rank, hidden.ModeConjunctive)
		smp = sample.Bernoulli(hiddenTable, req.Theta, stats.NewRNG(req.Seed))
	default:
		// The client deliberately does not carry req.Context: graceful
		// shutdown drains in-flight queries (their results are absorbed
		// and journaled), it does not abort them mid-request.
		client := &httpapi.Client{BaseURL: req.URL, Retries: 5}
		pool := sample.SingleKeywordPool(local, tk)
		if len(pool) == 0 {
			return nil, errors.New("engine: local table has no indexable keywords")
		}
		if err := client.Probe(pool[0]); err != nil {
			return nil, fmt.Errorf("engine: probing %s: %w", req.URL, err)
		}
		stopSample := o.Phase("keyword_sample")
		var err error
		smp, err = sample.Keyword(client, pool, tk, sample.KeywordConfig{
			Target: req.SampleTarget, Seed: req.Seed,
		})
		stopSample()
		if err != nil {
			fmt.Fprintf(log, "warning: sampling incomplete: %v\n", err)
		}
		fmt.Fprintf(log, "sample: %d records, θ̂=%.4f%%, %d queries spent\n",
			smp.Len(), 100*smp.Theta, smp.QueriesSpent)
		searcher = client
		if smp.Len() > 0 {
			hiddenSchema = make([]string, len(smp.Records[0].Values))
			for i := range hiddenSchema {
				hiddenSchema[i] = fmt.Sprintf("col%d", i)
			}
		}
	}

	// Chaos drill: inject deterministic misbehaviour inside the
	// politeness stack, where a real flaky interface would sit.
	if req.Faults != "" {
		p, err := deepweb.ParseFaultProfile(req.Faults)
		if err != nil {
			return nil, err
		}
		p.Seed = req.FaultSeed
		searcher = deepweb.NewFaulty(searcher, p).WithObs(o)
	}

	// Client-side politeness: a token bucket paces the whole crawl below
	// Rate regardless of Workers, and a retrying layer outside it waits
	// transient failures out with exponential backoff.
	if req.Rate > 0 {
		searcher = &deepweb.Limited{
			S:   searcher,
			B:   deepweb.NewBucket(req.Burst, req.Rate),
			Obs: o,
		}
	}
	if req.Retries > 0 && (req.Rate > 0 || req.Faults != "") {
		searcher = &deepweb.Retrying{
			S:       searcher,
			Retries: req.Retries,
			Backoff: deepweb.ExponentialBackoff(200*time.Millisecond, 5*time.Second),
			Obs:     o,
		}
	}

	// Entity matching compares the schema-aligned columns: hidden rows
	// carry enrichment attributes the local side lacks, so full-document
	// comparison would never match.
	var localCols, hiddenCols []int
	if hiddenTable != nil {
		m := relational.MatchSchemas(local, hiddenTable, tk)
		for i, j := range m.LocalToHidden {
			if j >= 0 {
				localCols = append(localCols, i)
				hiddenCols = append(hiddenCols, j)
			}
		}
		if len(localCols) == 0 {
			return nil, fmt.Errorf("engine: no columns could be aligned between %v and %v",
				local.Schema, hiddenTable.Schema)
		}
	}
	var matcher match.Matcher
	if req.Fuzzy > 0 {
		matcher = match.NewJaccardOn(tk, req.Fuzzy, localCols, hiddenCols)
	} else {
		matcher = match.NewExactOn(tk, localCols, hiddenCols)
	}
	env := &crawler.Env{
		Local:     local,
		Searcher:  searcher,
		Tokenizer: tk,
		Matcher:   matcher,
		Obs:       o,
		OnStep:    req.OnStep,
	}

	// Out-of-core corpus: open (or build, then open) the on-disk index
	// and route selection and pool generation through it. Byte-identical
	// to the in-memory path — DESIGN.md "Out-of-core corpus".
	if req.CorpusCache != "" {
		cf, err := openOrBuildCorpus(req.CorpusCache, local, tk, log)
		if err != nil {
			return nil, err
		}
		defer cf.Close()
		env.Corpus = cf
	}

	// Durability: with a checkpoint, prior state (snapshot + journal) is
	// recovered through the durable sink, which also journals this run.
	var (
		resume  *crawler.Result
		pending []crawler.PendingQuery
		sink    *durable.Sink
	)
	outcome := &Outcome{Local: local, HiddenSchema: hiddenSchema}
	if req.Checkpoint != "" {
		var err error
		sink, err = durable.Open(durable.Options{
			Snapshot:   req.Checkpoint,
			Journal:    req.WAL,
			Every:      req.Autosave,
			Sync:       req.WALSync,
			LocalLen:   local.Len(),
			Obs:        o,
			CrashPoint: req.CrashPoint,
		})
		if err != nil {
			return nil, err
		}
		rec := sink.Recovered()
		outcome.Recovered = rec
		if rec.JournalRecords > 0 || rec.TornTail {
			covered, queries := 0, 0
			if rec.Result != nil {
				covered, queries = rec.Result.CoveredCount, rec.Result.QueriesIssued
			}
			o.Recovered(req.WAL, rec.JournalRecords, covered, queries, rec.LastSeq, rec.TornTail)
			fmt.Fprintf(log, "recovered: %d journal records replayed (torn tail: %t, %d queries pending)\n",
				rec.JournalRecords, rec.TornTail, len(rec.Pending))
		}
		if rec.Result != nil {
			resume = rec.Result
			pending = rec.Pending
			fmt.Fprintf(log, "resuming: %d records covered, %d queries spent previously\n",
				resume.CoveredCount, resume.QueriesIssued)
		}
	}

	// TotalBudget: the budget is the job's lifetime allowance — what the
	// recovered checkpoint already settled comes off the top, and a
	// non-positive remainder must never reach the crawl loop (Budget <= 0
	// means unlimited there).
	budget := req.Budget
	if req.TotalBudget && outcome.Recovered != nil {
		budget -= outcome.Recovered.Charged
		if budget < 0 {
			budget = 0
		}
	}

	// A worker pool without a batch to chew through is idle: default the
	// selection batch to the worker count so Workers alone overlaps
	// round-trips.
	batch := req.Batch
	if batch == 0 {
		batch = req.Workers
	}
	// Graceful degradation defaults: with faults on, failed queries are
	// retried a few times then forfeited, and a circuit breaker holds
	// selection while the interface is down.
	maxAttempts := req.MaxAttempts
	anyFedFaults := federate.AnyFaults(fedSpecs)
	if maxAttempts == 0 && (req.Faults != "" || anyFedFaults) {
		maxAttempts = 3
	}
	breakerN := req.Breaker
	if breakerN < 0 {
		breakerN = 0
		if req.Faults != "" {
			breakerN = 5
		}
	}
	var brk *deepweb.Breaker
	if breakerN > 0 {
		brk = deepweb.NewBreaker(deepweb.BreakerConfig{FailureThreshold: breakerN}).WithObs(o)
	}
	cfg := crawler.SmartConfig{
		Resume:        resume,
		ResumePending: pending,
		BatchSize:     batch,
		Concurrency:   req.Workers,
		Shards:        req.Shards,
		MaxAttempts:   maxAttempts,
		Breaker:       brk,
		Context:       req.Context,
		Deadline:      req.Deadline,
		QueryTimeout:  req.QueryTimeout,
		RetryBudget:   req.RetryBudget,
	}
	if env.Corpus != nil {
		// Pool generation reuses the cache's dictionary instead of
		// re-scanning the table; with PoolSample set it mines a reservoir
		// sample, and the crawler recounts supports exactly against the
		// mapped index (env.Corpus).
		cfg.PoolConfig.Dict = env.Corpus.Dict
		if req.PoolSample > 0 {
			cfg.PoolConfig.SampleSize = req.PoolSample
			cfg.PoolConfig.SampleSeed = req.Seed
		}
	}
	if req.Health {
		h := crawler.DefaultHealthConfig()
		cfg.Health = &h
	}
	if sink != nil {
		cfg.Durability = sink
	}

	var (
		c   crawler.Crawler
		err error
	)
	switch {
	case req.TotalBudget && budget == 0 && resume != nil:
		// Lifetime budget fully settled: nothing to crawl, the recovered
		// state is the final state. Skip the crawler build (its durability
		// replay expects rounds to re-issue) and re-derive the outputs.
		c = doneCrawler{res: resume}
	case fed != nil:
		cfg.OnlineCalibration = req.Strategy == "online"
		for _, h := range fed.Ifaces {
			if h.Sample != nil {
				cfg.AlphaFallback = true
				break
			}
		}
		c, err = crawler.NewFederatedSmart(env, cfg, fed.Ifaces)
	default:
		c, err = buildSingle(req.Strategy, env, smp, cfg, req.Seed)
	}
	if err != nil {
		if sink != nil {
			sink.Close(nil)
		}
		return nil, err
	}

	// Pick enrichment columns.
	var cols []int
	for _, name := range req.EnrichColumns {
		idx := -1
		for j, s := range hiddenSchema {
			if strings.EqualFold(strings.TrimSpace(name), s) {
				idx = j
				break
			}
		}
		if idx == -1 {
			if sink != nil {
				sink.Close(nil)
			}
			return nil, fmt.Errorf("engine: hidden schema %v has no column %q", hiddenSchema, name)
		}
		cols = append(cols, idx)
	}
	opts := enrich.Options{Columns: cols}
	if len(cols) == 0 {
		if hiddenTable == nil {
			if sink != nil {
				sink.Close(nil)
			}
			return nil, errors.New("engine: enrichment columns are required with a remote interface (no hidden schema to auto-map)")
		}
		mapping := relational.MatchSchemas(local, hiddenTable, tk)
		opts.Mapping = &mapping
	}

	stopEnrich := o.Phase("crawl_and_enrich")
	report, res, err := enrich.Enrich(local, hiddenSchema, c, budget, opts)
	stopEnrich()
	if err != nil {
		if sink != nil {
			// A failed crawl has no final state to compact, but the
			// journal on disk still holds everything absorbed so far —
			// close without truncating it.
			sink.Close(nil)
		}
		return nil, err
	}
	fmt.Fprintf(log, "crawl: %d queries issued, %d/%d records enriched (%.1f%%)\n",
		report.QueriesIssued, report.Enriched, local.Len(), 100*report.Coverage)
	if res.Resilience != nil {
		fmt.Fprintln(log, res.Resilience.String())
	}
	if sink != nil {
		if err := sink.Close(res); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "checkpoint written to %s\n", req.Checkpoint)
	}
	if req.Context != nil && req.Context.Err() != nil {
		outcome.Interrupted = true
	}
	outcome.Report = report
	outcome.Result = res
	return outcome, nil
}

// buildSingle constructs the single-interface crawler for the strategy,
// mirroring the facade's NewSmartCrawler estimator selection.
func buildSingle(strategy string, env *crawler.Env, smp *sample.Sample, cfg crawler.SmartConfig, seed uint64) (crawler.Crawler, error) {
	switch strategy {
	case "smart":
		cfg.Sample = smp
		if smp != nil {
			cfg.AlphaFallback = true
			cfg.Estimator = estimator.Biased{}
		}
		return crawler.NewSmart(env, cfg)
	case "simple":
		return crawler.NewSmart(env, cfg)
	case "online":
		cfg.OnlineCalibration = true
		return crawler.NewSmart(env, cfg)
	case "naive":
		return crawler.NewNaive(env, nil, seed)
	case "full":
		return crawler.NewFull(env, smp)
	}
	return nil, fmt.Errorf("engine: unknown strategy %q", strategy)
}
