package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/enrich"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/index"
	"smartcrawl/internal/match"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// tracedRun is the outcome of one traced crawl.
type tracedRun struct {
	wall    time.Duration
	digest  string
	metrics map[string]float64
}

// tracedCrawl runs the crawl of w with every layer boundary timed.
// engine.Run has no seam for a searcher or a durability sink, so this
// composes the same layers engine.Run composes for w's request, from their
// public constructors, and decorates the seams the crawl exposes. The
// caller compares the output digest with the untraced crawl's: if they
// differ, this traced a different program.
func tracedCrawl(w *workload, sc scale, in *inputs, seed uint64, p crawlPaths, runID string) (tr *tracedRun, err error) {
	if err := p.reset(); err != nil {
		return nil, err
	}
	o := obs.New()
	rec := newRecorder(runID, &o.Rounds)
	m := map[string]float64{}
	req := w.newRequest(sc, in, seed, nil, p)

	// One-time work outside the measured window: the live heap the hidden
	// layer holds, the yelp server, and the dblp-mapped corpus cache.
	base := liveHeapAfterGC()
	switch w.data {
	case "yelp":
		srv, err := startServer(in.hidden, in.rankColumn, func(s deepweb.Searcher) deepweb.Searcher {
			return &spanSearcher{s: s, rec: rec, name: spanHiddenSearch}
		})
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := srv.close(); err == nil && cerr != nil {
				err = cerr
			}
		}()
		m["hidden.heap_mb"] = mb(liveHeapAfterGC()) - mb(base)
		req.URL = srv.url
	case "dblp":
		// The crawl builds its own; this one is measured and dropped.
		t, err := engine.LoadTable(in.hidden, "hidden")
		if err != nil {
			return nil, err
		}
		db := hidden.New(t, tokenize.New(), req.K, hidden.RankByNumericColumn(req.RankColumn), hidden.ModeConjunctive)
		m["hidden.heap_mb"] = mb(liveHeapAfterGC()) - mb(base)
		runtime.KeepAlive(db)
	}
	if req.CorpusCache != "" {
		req.CorpusCache = filepath.Join(p.dir, "traced.scorp")
		local, err := engine.LoadTable(in.local, "local")
		if err != nil {
			return nil, err
		}
		if err := rec.record(spanCorpusBuild, 0, func() error { return buildCorpus(req.CorpusCache, local) }); err != nil {
			return nil, err
		}
	}

	// The measured window: from loading the local table to the written
	// output, as setup_s + crawl_s of an untraced crawl.
	debug.FreeOSMemory()
	alloc0, gc0 := runtimeCounters()
	steal0 := hostSteal()
	start := time.Now()
	root, endRoot := rec.open(spanRun, 0)
	c := &composed{rec: rec, root: root, obs: o}
	err = c.run(&req, in.local, p.output)
	endRoot()
	wall := time.Since(start)
	alloc1, gc1 := runtimeCounters()
	steal1 := hostSteal()
	if err != nil {
		return nil, err
	}

	digest, err := outputDigest(c.res, p.output)
	if err != nil {
		return nil, err
	}
	if err := checkAccounting(req.Budget, c.res); err != nil {
		return nil, err
	}
	if req.Checkpoint != "" {
		err := rec.record(spanRecover, 0, func() error {
			return checkRecovery(&req, c.local.Len(), c.res)
		})
		if err != nil {
			return nil, err
		}
	}
	if err := c.replayMatches(in, m); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(p.dir, "spans.jsonl")); err != nil {
		return nil, err
	}

	m["runtime.alloc_mb"] = mb(alloc1 - alloc0)
	m["runtime.gc_cpu_s"] = gc1 - gc0
	m["runtime.steal_s"] = (steal1 - steal0).Seconds()
	c.layerMetrics(m)
	return &tracedRun{wall: wall, digest: digest, metrics: m}, nil
}

// composed is one traced crawl's composition of the layers, with the state
// its metrics are read from afterwards.
type composed struct {
	rec  *recorder
	root int64
	obs  *obs.Obs

	tk      *tokenize.Tokenizer
	local   *relational.Table
	matcher match.Matcher
	smp     *sample.Sample
	smart   *crawler.Smart
	sink    *durable.Sink
	closed  bool // sink.Close has been called
	ckpt    string
	res     *crawler.Result
	steps   []time.Duration // recorder offsets of every OnStep call
}

// layer times fn as a top-level layer span of the run.
func (c *composed) layer(name string, fn func() error) error {
	return c.rec.record(name, c.root, fn)
}

// run mirrors engine.Run for the request fields the workloads set; the
// comments name the engine step each block stands for.
func (c *composed) run(req *engine.Request, localPath, outputPath string) (err error) {
	if req.Interfaces != "" || req.Rate > 0 || (req.Retries > 0 && req.Faults != "") ||
		req.Deadline > 0 || req.QueryTimeout > 0 || req.RetryBudget > 0 || req.MaxAttempts != 0 || req.Breaker >= 0 {
		return errors.New("the traced composition covers neither federation, pacing, retries, deadlines, retry budgets nor explicit failure settings")
	}
	o := c.obs
	c.tk = tokenize.New()
	if err := c.layer(spanLoad, func() (err error) {
		c.local, err = engine.LoadTable(localPath, "local")
		return err
	}); err != nil {
		return err
	}

	// Search interface, sample, and hidden schema.
	var (
		searcher     deepweb.Searcher
		hiddenSchema []string
		hiddenTable  *relational.Table
	)
	if req.Hidden != "" {
		if err := c.layer(spanLoad, func() (err error) {
			hiddenTable, err = engine.LoadTable(req.Hidden, "hidden")
			return err
		}); err != nil {
			return err
		}
		hiddenSchema = hiddenTable.Schema
		_, end := c.rec.open(spanHiddenBuild, c.root)
		db := hidden.New(hiddenTable, c.tk, req.K, hidden.RankByNumericColumn(req.RankColumn), hidden.ModeConjunctive)
		end()
		_, end = c.rec.open(spanSample, c.root)
		c.smp = sample.Bernoulli(hiddenTable, req.Theta, stats.NewRNG(req.Seed))
		end()
		searcher = &spanSearcher{s: db, rec: c.rec, name: spanHiddenSearch}
	} else {
		client := &spanSearcher{s: &httpapi.Client{BaseURL: req.URL, Retries: 5}, rec: c.rec, name: spanRoundtrip}
		if err := c.keywordSample(req, client); err != nil {
			return err
		}
		searcher = client
		if c.smp.Len() > 0 {
			hiddenSchema = make([]string, len(c.smp.Records[0].Values))
			for i := range hiddenSchema {
				hiddenSchema[i] = fmt.Sprintf("col%d", i)
			}
		}
	}
	if req.Faults != "" {
		fp, err := deepweb.ParseFaultProfile(req.Faults)
		if err != nil {
			return err
		}
		fp.Seed = req.FaultSeed
		searcher = deepweb.NewFaulty(searcher, fp).WithObs(o)
	}

	// Entity matching on the schema-aligned columns.
	var localCols, hiddenCols []int
	if hiddenTable != nil {
		sm := relational.MatchSchemas(c.local, hiddenTable, c.tk)
		for i, j := range sm.LocalToHidden {
			if j >= 0 {
				localCols = append(localCols, i)
				hiddenCols = append(hiddenCols, j)
			}
		}
	}
	if req.Fuzzy > 0 {
		c.matcher = match.NewJaccardOn(c.tk, req.Fuzzy, localCols, hiddenCols)
	} else {
		c.matcher = match.NewExactOn(c.tk, localCols, hiddenCols)
	}
	env := &crawler.Env{
		Local:     c.local,
		Searcher:  &spanSearcher{s: searcher, rec: c.rec, name: spanSearch},
		Tokenizer: c.tk,
		Matcher:   c.matcher,
		Obs:       o,
		OnStep:    func(crawler.Step) { c.steps = append(c.steps, c.rec.now()) },
	}

	// Out-of-core corpus.
	if req.CorpusCache != "" {
		var cf *index.CorpusFile
		if err := c.layer(spanCorpusOpen, func() (err error) {
			cf, err = index.OpenCorpus(req.CorpusCache)
			return err
		}); err != nil {
			return err
		}
		defer cf.Close()
		if cf.Records() != c.local.Len() {
			return fmt.Errorf("corpus cache indexes %d records, local table has %d", cf.Records(), c.local.Len())
		}
		env.Corpus = cf
	}

	// Durability.
	var sink crawler.DurabilitySink
	if req.Checkpoint != "" {
		if err := c.layer(spanDurableOpen, func() (err error) {
			c.sink, err = durable.Open(durable.Options{
				Snapshot: req.Checkpoint,
				Journal:  req.WAL,
				Every:    req.Autosave,
				Sync:     req.WALSync,
				LocalLen: c.local.Len(),
				Obs:      o,
			})
			return err
		}); err != nil {
			return err
		}
		sink = &spanSink{next: c.sink, rec: c.rec}
		c.ckpt = req.Checkpoint
		defer func() {
			if err != nil && !c.closed {
				// As engine.Run: a failed crawl keeps its journal, and
				// the crawl's error is the one to report.
				_ = c.sink.Close(nil)
			}
		}()
	}

	// Graceful-degradation defaults with faults on.
	maxAttempts := req.MaxAttempts
	if maxAttempts == 0 && req.Faults != "" {
		maxAttempts = 3
	}
	breakerN := req.Breaker
	if breakerN < 0 {
		breakerN = 0
		if req.Faults != "" {
			breakerN = 5
		}
	}
	cfg := crawler.SmartConfig{
		BatchSize:   req.Batch,
		Concurrency: req.Workers,
		Shards:      req.Shards,
		MaxAttempts: maxAttempts,
		Durability:  sink,
	}
	if breakerN > 0 {
		cfg.Breaker = deepweb.NewBreaker(deepweb.BreakerConfig{FailureThreshold: breakerN}).WithObs(o)
	}
	if env.Corpus != nil {
		cfg.PoolConfig.Dict = env.Corpus.Dict
		if req.PoolSample > 0 {
			cfg.PoolConfig.SampleSize = req.PoolSample
			cfg.PoolConfig.SampleSeed = req.Seed
			cfg.PoolConfig.Count = env.Corpus.Inv.Count
		}
	}
	// buildSingle("smart").
	cfg.Sample = c.smp
	if c.smp != nil {
		cfg.AlphaFallback = true
		cfg.Estimator = estimator.Biased{}
	}
	smart, err := crawler.NewSmart(env, cfg)
	if err != nil {
		return err
	}
	c.smart = smart

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
			return fmt.Errorf("hidden schema %v has no column %q", hiddenSchema, name)
		}
		cols = append(cols, idx)
	}

	id, end := c.rec.open(spanEnrich, c.root)
	stop := o.Phase("crawl_and_enrich")
	_, c.res, err = enrich.Enrich(c.local, hiddenSchema,
		&spanCrawler{c: smart, rec: c.rec, parent: id}, req.Budget, enrich.Options{Columns: cols})
	stop()
	end()
	if err != nil {
		return err
	}
	if c.sink != nil {
		c.closed = true
		if err := c.layer(spanClose, func() error { return c.sink.Close(c.res) }); err != nil {
			return err
		}
	}
	return c.layer(spanWrite, func() error { return writeOutput(outputPath, c.local) })
}

// keywordSample is engine.Run's remote sampling: probe the interface, then
// sample it through single-keyword queries drawn from the local table.
func (c *composed) keywordSample(req *engine.Request, client deepweb.Searcher) error {
	id, end := c.rec.open(spanSample, c.root)
	defer end()
	c.rec.searchParent.Store(id)
	pool := sample.SingleKeywordPool(c.local, c.tk)
	if len(pool) == 0 {
		return errors.New("local table has no indexable keywords")
	}
	if _, err := client.Search(pool[0]); err != nil {
		return fmt.Errorf("probing %s: %w", req.URL, err)
	}
	stop := c.obs.Phase("keyword_sample")
	smp, err := sample.Keyword(client, pool, c.tk, sample.KeywordConfig{Target: req.SampleTarget, Seed: req.Seed})
	stop()
	c.smp = smp
	// engine.Run continues on an incomplete sample; so does the benchmark,
	// whose digest check then compares the same program.
	_ = err
	return nil
}

// replayMatches re-runs the crawl's join outside the crawl: match.Joiner
// specialises on the concrete matcher, so wrapping the matcher would have
// turned the crawl's join into a full scan. Every record the searches
// returned is matched against a fresh copy of the local table (enrichment
// appended columns to the crawled one).
func (c *composed) replayMatches(in *inputs, m map[string]float64) error {
	local, err := engine.LoadTable(in.local, "local")
	if err != nil {
		return err
	}
	joiner := match.NewJoiner(local.Records, c.tk, c.matcher)
	ids := make([]int, 0, len(c.res.Crawled))
	for id := range c.res.Crawled {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	start := time.Now()
	for _, id := range ids {
		joiner.Matches(c.res.Crawled[id])
	}
	m["match.replay_s"] = time.Since(start).Seconds()
	m["match.calls"] = float64(len(ids))
	correct := 0
	for d, h := range c.res.Matches {
		if d < len(in.truth) && in.truth[d] == h.ID {
			correct++
		}
	}
	m["match.precision"] = ratio(correct, len(c.res.Matches))
	return nil
}

// layerMetrics derives the per-layer metrics from the spans, the obs
// phases and counters, and the crawl's own report.
func (c *composed) layerMetrics(m map[string]float64) {
	spans := c.rec.snapshot()
	sum := func(name string, crawlOnly bool) (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, s := range spans {
			if s.Name == name && (!crawlOnly || s.Round > 0) {
				d += s.dur()
				n++
			}
		}
		return d, n
	}
	corpusBuild, _ := sum(spanCorpusBuild, false)
	load, _ := sum(spanLoad, false)
	write, _ := sum(spanWrite, false)
	open, _ := sum(spanCorpusOpen, false)
	build, _ := sum(spanHiddenBuild, false)
	smp, _ := sum(spanSample, false)
	search, searches := sum(spanHiddenSearch, true)
	roundtrip, roundtrips := sum(spanRoundtrip, true)
	appendD, _ := sum(spanAppend, false)
	roundD, _ := sum(spanRound, false)
	closeD, _ := sum(spanClose, false)
	recoverD, _ := sum(spanRecover, false)
	enrichD, _ := sum(spanEnrich, false)
	crawlD, _ := sum(spanCrawl, false)
	m["relational.load_s"] = load.Seconds()
	m["relational.write_s"] = write.Seconds()
	m["index.corpus_build_s"] = corpusBuild.Seconds()
	m["index.corpus_open_s"] = open.Seconds()
	m["hidden.build_s"] = build.Seconds()
	m["hidden.search_s"] = search.Seconds()
	m["hidden.searches"] = float64(searches)
	m["httpapi.roundtrip_s"] = roundtrip.Seconds()
	m["httpapi.overhead_s"] = 0
	if roundtrips > 0 {
		m["httpapi.overhead_s"] = (roundtrip - search).Seconds()
	}
	m["sample.build_s"] = smp.Seconds()
	m["sample.queries"] = float64(c.smp.QueriesSpent)
	m["durable.append_s"] = appendD.Seconds()
	m["durable.round_s"] = roundD.Seconds()
	m["durable.close_s"] = closeD.Seconds()
	m["durable.recover_s"] = recoverD.Seconds()
	m["enrich.apply_s"] = (enrichD - crawlD).Seconds()

	// deepweb: per round, from the first search's start to the last
	// search's end.
	type window struct{ start, end time.Duration }
	rounds := map[int64]window{}
	var crawlStart, firstDispatch time.Duration = 0, -1
	for _, s := range spans {
		if s.Name == spanCrawl {
			crawlStart = s.Start
		}
		if s.Name != spanSearch || s.Round == 0 {
			continue
		}
		if firstDispatch < 0 || s.Start < firstDispatch {
			firstDispatch = s.Start
		}
		w, ok := rounds[s.Round]
		if !ok || s.Start < w.start {
			w.start = s.Start
		}
		if s.End > w.end {
			w.end = s.End
		}
		rounds[s.Round] = w
	}
	var roundWait time.Duration
	for _, w := range rounds {
		roundWait += w.end - w.start
	}
	_, attempts := sum(spanSearch, true)
	m["deepweb.round_wait_s"] = roundWait.Seconds()
	m["deepweb.attempts"] = float64(attempts)
	var requeued, forfeited, refunded int
	if r := c.res.Resilience; r != nil {
		requeued, forfeited, refunded = r.Requeued, r.Forfeited, r.Refunded
	}
	m["deepweb.requeued"] = float64(requeued)
	m["deepweb.forfeited"] = float64(forfeited)
	m["deepweb.refunded"] = float64(refunded)

	// crawler: self times, with the layers below subtracted.
	phases := map[string]time.Duration{}
	names, durs := c.obs.PhaseDurations()
	for i, n := range names {
		phases[n] = durs[i]
	}
	var durableBeforeDispatch time.Duration
	for _, s := range spans {
		if (s.Name == spanAppend || s.Name == spanRound) && s.Start < firstDispatch {
			durableBeforeDispatch += s.dur()
		}
	}
	m["querypool.generate_s"] = phases["pool_generate"].Seconds()
	m["querypool.size"] = float64(c.smart.PoolSize)
	m["crawler.setup_self_s"] = (firstDispatch - crawlStart - phases["pool_generate"] - durableBeforeDispatch).Seconds()
	m["crawler.loop_self_s"] = (phases["crawl_loop"] - roundWait - appendD - roundD).Seconds()
	p50, tail, pct, n := stepIntervals(c.steps)
	m["crawler.step_p50_ms"] = p50
	m["crawler.step_tail_ms"] = tail
	m["crawler.step_tail_pct"] = pct
	m["crawler.step_n"] = float64(n)
	useful := 0
	for _, s := range c.res.Steps {
		if s.NewlyCovered > 0 {
			useful++
		}
	}
	m["crawler.useful_query_frac"] = ratio(useful, len(c.res.Steps))
	m["lazyheap.repushes"] = float64(c.smart.HeapRepushes)
	m["estimator.calls"] = float64(c.obs.EstimateCalls.Value())
	m["estimator.abs_err_mean"] = 0
	if pairs := c.obs.BenefitPairs.Value(); pairs > 0 {
		m["estimator.abs_err_mean"] = c.obs.BenefitAbsErr.Value() / float64(pairs)
	}

	// durable: journal counters from obs, files from disk.
	m["durable.appends"] = float64(c.obs.WalAppends.Value())
	m["durable.wal_mb"] = mb(uint64(c.obs.WalBytes.Value()))
	m["durable.fsync_s"] = c.obs.WalFsyncLatency.Snapshot().Sum.Seconds()
	m["durable.compactions"] = 0
	m["durable.snapshot_mb"] = 0
	if c.sink != nil {
		m["durable.compactions"] = float64(c.sink.Compactions())
		if fi, err := os.Stat(c.ckpt); err == nil {
			m["durable.snapshot_mb"] = mb(uint64(fi.Size()))
		}
	}

	// trace: the share of the window no layer span covers. The top-level
	// layer spans run one after another on the run's goroutine, so they
	// do not overlap.
	var root, covered time.Duration
	for _, s := range spans {
		switch {
		case s.ID == c.root:
			root = s.dur()
		case s.Parent == c.root:
			covered += s.dur()
		}
	}
	m["trace.unattributed_frac"] = 1 - float64(covered)/float64(root)
}

// stepIntervals summarises the times between consecutive absorbed
// queries: the median and the highest percentile with at least ten
// intervals beyond it, with that percentile and the interval count. With
// ten intervals or fewer there is no such percentile; the maximum stands
// in for it.
func stepIntervals(at []time.Duration) (p50, tail, pct float64, n int) {
	if len(at) < 2 {
		return 0, 0, 0, 0
	}
	iv := make([]float64, len(at)-1)
	for i := range iv {
		iv[i] = float64(at[i+1]-at[i]) / float64(time.Millisecond)
	}
	sort.Float64s(iv)
	n = len(iv)
	p50 = median(iv)
	k := n - 11 // ten intervals lie beyond index k
	if k < 0 {
		return p50, iv[n-1], 100, n
	}
	return p50, iv[k], 100 * float64(k+1) / float64(n), n
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
