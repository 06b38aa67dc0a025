// Package engine assembles and runs one budgeted enrichment crawl
// end-to-end: load inputs, build the search interfaces through
// internal/federate (a simulated or remote interface is the one-interface
// federation of its spec), recover durable state, crawl, enrich, and
// persist the checkpoint.
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

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/enrich"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/federate"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
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

	// One builder serves both request forms: a Hidden or URL request is
	// the one-interface federation of its spec.
	specs, err := req.specs()
	if err != nil {
		return nil, err
	}
	fed, err := federate.BuildAll(specs, local, tk, o)
	if err != nil {
		return nil, err
	}
	hiddenSchema := fed.HiddenSchema()
	var hiddenTable *relational.Table
	for _, t := range fed.Tables {
		if t != nil {
			hiddenTable = t
			break
		}
	}
	if req.Interfaces != "" {
		names := make([]string, len(fed.Ifaces))
		for i, h := range fed.Ifaces {
			names[i] = h.Name
		}
		fmt.Fprintf(log, "federation: %d interfaces (%s)\n", len(fed.Ifaces), strings.Join(names, ", "))
	} else if smp := fed.Ifaces[0].Sample; req.URL != "" && smp != nil {
		// The keyword sampler returns ErrSampleBudget exactly when it
		// drew fewer records than its target; Build kept the partial
		// sample.
		if smp.Len() < req.SampleTarget {
			fmt.Fprintf(log, "warning: sampling incomplete: %v\n", sample.ErrSampleBudget)
		}
		fmt.Fprintf(log, "sample: %d records, θ̂=%.4f%%, %d queries spent\n",
			smp.Len(), 100*smp.Theta, smp.QueriesSpent)
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
	// Graceful degradation: with faults on, failed queries are retried a
	// few times then forfeited.
	maxAttempts := req.MaxAttempts
	if maxAttempts == 0 && federate.AnyFaults(specs) {
		maxAttempts = 3
	}
	cfg := crawler.SmartConfig{
		Resume:        resume,
		ResumePending: pending,
		BatchSize:     batch,
		Concurrency:   req.Workers,
		Shards:        req.Shards,
		MaxAttempts:   maxAttempts,
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

	var c crawler.Crawler
	switch {
	case req.TotalBudget && budget == 0 && resume != nil:
		// Lifetime budget fully settled: nothing to crawl, the recovered
		// state is the final state. Skip the crawler build (its durability
		// replay expects rounds to re-issue) and re-derive the outputs.
		c = doneCrawler{res: resume}
	case req.Interfaces != "":
		cfg.OnlineCalibration = req.Strategy == "online"
		for _, h := range fed.Ifaces {
			if h.Sample != nil {
				cfg.AlphaFallback = true
				break
			}
		}
		c, err = crawler.NewFederatedSmart(env, cfg, fed.Ifaces)
	default:
		c, err = buildSingle(req.Strategy, env, fed.Ifaces[0], cfg, req.Seed)
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

// buildSingle constructs the crawler of a one-interface request for the
// strategy over the built interface h, mirroring the facade's
// NewSmartCrawler estimator selection.
func buildSingle(strategy string, env *crawler.Env, h crawler.Interface, cfg crawler.SmartConfig, seed uint64) (crawler.Crawler, error) {
	env.Searcher = h.Searcher
	cfg.Breaker = h.Breaker
	smp := h.Sample
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
