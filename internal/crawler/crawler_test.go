package crawler_test

import (
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/fixture"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// fixtureEnv builds the running-example environment (k=2, θ=1/3).
func fixtureEnv(t *testing.T) (*crawler.Env, *hidden.Database, *sample.Sample) {
	t.Helper()
	u := fixture.New()
	env := &crawler.Env{
		Local:     u.Local,
		Searcher:  u.DB,
		Tokenizer: u.Tokenizer,
		Matcher:   match.NewExactOn(u.Tokenizer, nil, []int{0}),
	}
	smp := &sample.Sample{Records: u.Sample.Records, Theta: u.Theta}
	return env, u.DB, smp
}

// dblpEnv builds an env over a generated DBLP instance.
func dblpEnv(t *testing.T, cfg dataset.DBLPConfig, k int, matcher match.Matcher) (*crawler.Env, *dataset.Instance, *hidden.Database) {
	t.Helper()
	in, err := dataset.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := tokenize.New()
	db := hidden.New(in.Hidden, tk, k,
		hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
	if matcher == nil {
		matcher = match.NewExactOn(tk, in.LocalKey, in.HiddenKey)
	}
	env := &crawler.Env{Local: in.Local, Searcher: db, Tokenizer: tk, Matcher: matcher}
	return env, in, db
}

// truthCoverage counts local records whose true hidden match was crawled.
func truthCoverage(res *crawler.Result, truth []int) int {
	n := 0
	for d, h := range truth {
		if h < 0 {
			continue
		}
		if _, ok := res.Crawled[h]; ok {
			n++
		}
		_ = d
	}
	return n
}

func TestSmartBiasedCoversFixture(t *testing.T) {
	env, _, smp := fixtureEnv(t)
	c, err := crawler.NewSmart(env, crawler.SmartConfig{
		Sample:    smp,
		Estimator: estimator.Biased{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount != 4 {
		t.Fatalf("covered %d of 4 with budget 3; steps: %+v", res.CoveredCount, res.Steps)
	}
	if res.QueriesIssued > 3 {
		t.Fatalf("issued %d > budget", res.QueriesIssued)
	}
	// First selection: the tie between "house noodle thai" (benefit 2,
	// solid) and "house thai" (benefit 2, overflow) breaks by pool ID,
	// so d1's naive query goes first and covers d1 and d4 via h1, h4.
	if res.Steps[0].NewlyCovered != 2 {
		t.Fatalf("first query covered %d, want 2 (steps %+v)", res.Steps[0].NewlyCovered, res.Steps)
	}
}

func TestSmartSimpleRunsWithoutSample(t *testing.T) {
	env, _, _ := fixtureEnv(t)
	c, err := crawler.NewSmart(env, crawler.SmartConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "smartcrawl-simple" {
		t.Fatalf("Name = %q", c.Name())
	}
	res, err := c.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount < 3 {
		t.Fatalf("QSel-Simple covered only %d", res.CoveredCount)
	}
}

// TestFederatedSingleInterfaceName: a one-interface federated crawler is
// the same crawl as NewSmart over that interface, so it must report the
// same name — with and without a sample, where the federated
// constructor leaves the config's Estimator unset.
func TestFederatedSingleInterfaceName(t *testing.T) {
	env, db, smp := fixtureEnv(t)
	for _, s := range []*sample.Sample{nil, smp} {
		single, err := crawler.NewSmart(env, crawler.SmartConfig{Sample: s})
		if err != nil {
			t.Fatal(err)
		}
		fedEnv := *env
		fedEnv.Searcher = nil
		fed, err := crawler.NewFederatedSmart(&fedEnv, crawler.SmartConfig{},
			[]crawler.Interface{{Name: "only", Searcher: db, Sample: s}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fed.Name(), single.Name(); got != want {
			t.Fatalf("sample=%v: federated n=1 Name() = %q, NewSmart's = %q", s != nil, got, want)
		}
	}
}

func TestSmartRejectsEstimatorWithoutSample(t *testing.T) {
	env, _, _ := fixtureEnv(t)
	if _, err := crawler.NewSmart(env, crawler.SmartConfig{Estimator: estimator.Biased{}}); err == nil {
		t.Fatal("biased estimator without sample should be rejected")
	}
}

func TestSmartBudgetRespected(t *testing.T) {
	env, _, smp := fixtureEnv(t)
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
	res, err := c.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 1 {
		t.Fatalf("issued %d, want 1", res.QueriesIssued)
	}
}

func TestIdealCoversFixtureOptimally(t *testing.T) {
	env, db, _ := fixtureEnv(t)
	c, err := crawler.NewIdeal(env, db, querypool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount != 4 {
		t.Fatalf("ideal covered %d of 4", res.CoveredCount)
	}
	// Greedy by true benefit: first step must cover 2 records.
	if res.Steps[0].NewlyCovered != 2 {
		t.Fatalf("first ideal step covered %d", res.Steps[0].NewlyCovered)
	}
}

func TestNaiveCoversFixture(t *testing.T) {
	env, _, _ := fixtureEnv(t)
	c, err := crawler.NewNaive(env, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	// Every record's full name is a solid query returning its match, and
	// already-covered records are skipped, so 4 records need ≤ 4 queries.
	if res.CoveredCount != 4 {
		t.Fatalf("naive covered %d of 4", res.CoveredCount)
	}
}

func TestFullCrawlIgnoresLocalDatabase(t *testing.T) {
	env, _, smp := fixtureEnv(t)
	c, err := crawler.NewFull(env, smp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	// FullCrawl issues the sample-frequent keywords; with k=2 and a
	// rating-ranked engine those surface high-rated non-local records
	// first, so coverage is poor — the point of the baseline.
	if res.CoveredCount > 2 {
		t.Fatalf("fullcrawl covered %d — unexpectedly local-aware", res.CoveredCount)
	}
	if res.QueriesIssued != 2 {
		t.Fatalf("issued %d", res.QueriesIssued)
	}
}

func TestBoundKeepsQueriesWithDeltaD(t *testing.T) {
	// Environment with ΔD: bound must re-select kept queries and still
	// satisfy the Lemma 2 guarantee against Ideal. The lemma assumes no
	// top-k constraint (Assumption 2), so k is lifted to |H|.
	env, in, db := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 8000, HiddenSize: 2000, LocalSize: 300, DeltaD: 30, Seed: 5,
	}, 2000, nil)

	const budget = 60
	b, err := crawler.NewBound(env, querypool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := crawler.NewIdeal(env, db, querypool.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resI, err := ideal.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	nBound, nIdeal := float64(resB.CoveredCount), float64(resI.CoveredCount)
	lower := (1 - float64(in.DeltaD)/float64(budget)) * nIdeal
	if nBound < lower-1e-9 {
		t.Fatalf("Lemma 2 violated: N_bound=%v < (1-|ΔD|/b)·N_ideal=%v", nBound, lower)
	}
}

func TestSmartDeltaDRemovalSavesBudget(t *testing.T) {
	// With ΔD present, §4.2 removal should not hurt coverage and the
	// crawler must never report ΔD records as covered.
	env, in, _ := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, DeltaD: 100, Seed: 6,
	}, 100, nil)
	smp := sample.Bernoulli(in.Hidden, 0.02, stats.NewRNG(1))
	c, err := crawler.NewSmart(env, crawler.SmartConfig{
		Sample: smp, Estimator: estimator.Biased{}, AlphaFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(150)
	if err != nil {
		t.Fatal(err)
	}
	for d, h := range in.Truth {
		if h == -1 && res.Covered[d] {
			t.Fatalf("ΔD record %d reported covered", d)
		}
	}
	if res.CoveredCount == 0 {
		t.Fatal("no coverage at all")
	}
}

func TestSmartCoverageIsSound(t *testing.T) {
	// Every covered record's matched hidden record must satisfy the
	// matcher, and truth-coverage must be ≥ matcher-coverage under exact
	// matching (matcher matches imply truth matches in an error-free
	// instance with unique entities).
	env, in, _ := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 8000, HiddenSize: 2500, LocalSize: 500, Seed: 7,
	}, 50, nil)
	smp := sample.Bernoulli(in.Hidden, 0.05, stats.NewRNG(2))
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
	res, err := c.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	for d, h := range res.Matches {
		if !env.Matcher.Match(env.Local.Records[d], h) {
			t.Fatalf("recorded match (%d, %d) fails the matcher", d, h.ID)
		}
		if in.Truth[d] != h.ID {
			t.Fatalf("matcher matched %d to %d but truth is %d", d, h.ID, in.Truth[d])
		}
	}
	if tc := truthCoverage(res, in.Truth); tc < res.CoveredCount {
		t.Fatalf("truth coverage %d < matcher coverage %d", tc, res.CoveredCount)
	}
}

func TestSmartDeterministic(t *testing.T) {
	run := func() *crawler.Result {
		env, in, _ := dblpEnv(t, dataset.DBLPConfig{
			CorpusSize: 6000, HiddenSize: 1500, LocalSize: 300, Seed: 9,
		}, 50, nil)
		smp := sample.Bernoulli(in.Hidden, 0.05, stats.NewRNG(3))
		c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
		res, err := c.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CoveredCount != b.CoveredCount || len(a.Steps) != len(b.Steps) {
		t.Fatal("smartcrawl must be deterministic")
	}
	for i := range a.Steps {
		if a.Steps[i].Query.Key() != b.Steps[i].Query.Key() {
			t.Fatalf("step %d differs: %v vs %v", i, a.Steps[i].Query, b.Steps[i].Query)
		}
	}
}

func TestSmartNeverRepeatsQueries(t *testing.T) {
	env, in, _ := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 6000, HiddenSize: 1500, LocalSize: 300, DeltaD: 50, Seed: 10,
	}, 50, nil)
	smp := sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(4))
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
	res, err := c.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range res.Steps {
		if seen[s.Query.Key()] {
			t.Fatalf("query %v issued twice", s.Query)
		}
		seen[s.Query.Key()] = true
	}
}

func TestSmartOutperformsBaselinesOnDBLP(t *testing.T) {
	// The headline claim at small scale: SmartCrawl-B beats NaiveCrawl
	// and FullCrawl by a clear margin at a 20% budget.
	cfg := dataset.DBLPConfig{
		CorpusSize: 20000, HiddenSize: 5000, LocalSize: 1000, Seed: 11,
	}
	k := 100
	budget := 200 // 20% of |D|

	env, in, db := dblpEnv(t, cfg, k, nil)
	smp := sample.Bernoulli(in.Hidden, 0.01, stats.NewRNG(5))

	smart, _ := crawler.NewSmart(env, crawler.SmartConfig{
		Sample: smp, Estimator: estimator.Biased{}, AlphaFallback: true,
	})
	resSmart, err := smart.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	naive, _ := crawler.NewNaive(env, nil, 1)
	resNaive, err := naive.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	full, _ := crawler.NewFull(env, smp)
	resFull, err := full.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	ideal, _ := crawler.NewIdeal(env, db, querypool.Config{})
	resIdeal, err := ideal.Run(budget)
	if err != nil {
		t.Fatal(err)
	}

	cs := truthCoverage(resSmart, in.Truth)
	cn := truthCoverage(resNaive, in.Truth)
	cf := truthCoverage(resFull, in.Truth)
	ci := truthCoverage(resIdeal, in.Truth)
	t.Logf("coverage: smart=%d naive=%d full=%d ideal=%d (|D|=%d, b=%d)",
		cs, cn, cf, ci, in.Local.Len(), budget)

	if cs <= cn {
		t.Errorf("smart (%d) should beat naive (%d)", cs, cn)
	}
	if cs <= cf {
		t.Errorf("smart (%d) should beat full (%d)", cs, cf)
	}
	if ci < cs {
		t.Errorf("ideal (%d) should be ≥ smart (%d)", ci, cs)
	}
	if cs*2 < ci {
		t.Errorf("smart (%d) should track ideal (%d) within 2x", cs, ci)
	}
}

func TestNaiveRobustnessGapUnderErrors(t *testing.T) {
	// §7.2.5: with heavy errors, NaiveCrawl's coverage collapses while
	// SmartCrawl-B (with a fuzzy matcher) degrades mildly.
	mk := func(errRate float64) (smartCov, naiveCov int) {
		cfg := dataset.DBLPConfig{
			CorpusSize: 15000, HiddenSize: 4000, LocalSize: 600,
			ErrorRate: errRate, Seed: 13,
		}
		tkz := tokenize.New()
		in, err := dataset.GenerateDBLP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db := hidden.New(in.Hidden, tkz, 100,
			hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
		fuzzy := match.NewJaccardOn(tkz, 0.6, in.LocalKey, in.HiddenKey)
		env := &crawler.Env{Local: in.Local, Searcher: db, Tokenizer: tkz, Matcher: fuzzy}
		smp := sample.Bernoulli(in.Hidden, 0.02, stats.NewRNG(6))

		smart, _ := crawler.NewSmart(env, crawler.SmartConfig{
			Sample: smp, Estimator: estimator.Biased{}, AlphaFallback: true,
		})
		resS, err := smart.Run(150)
		if err != nil {
			t.Fatal(err)
		}
		naive, _ := crawler.NewNaive(env, nil, 1)
		resN, err := naive.Run(150)
		if err != nil {
			t.Fatal(err)
		}
		return truthCoverage(resS, in.Truth), truthCoverage(resN, in.Truth)
	}
	s0, n0 := mk(0)
	s50, n50 := mk(0.5)
	t.Logf("clean: smart=%d naive=%d; 50%% errors: smart=%d naive=%d", s0, n0, s50, n50)
	if n50 >= n0 {
		t.Errorf("naive should lose coverage under errors (%d → %d)", n0, n50)
	}
	// Smart's relative degradation must be smaller than naive's.
	smartLoss := float64(s0-s50) / float64(s0)
	naiveLoss := float64(n0-n50) / float64(n0)
	if smartLoss >= naiveLoss {
		t.Errorf("smart loss %.2f should be below naive loss %.2f", smartLoss, naiveLoss)
	}
}

func TestEnvValidation(t *testing.T) {
	if _, err := crawler.NewSmart(nil, crawler.SmartConfig{}); err == nil {
		t.Error("nil env should fail")
	}
	u := fixture.New()
	bad := &crawler.Env{Local: u.Local} // missing searcher etc.
	if _, err := crawler.NewNaive(bad, nil, 0); err == nil {
		t.Error("incomplete env should fail")
	}
	env, db, _ := fixtureEnv(t)
	if _, err := crawler.NewIdeal(env, nil, querypool.Config{}); err == nil {
		t.Error("ideal without oracle should fail")
	}
	_ = db
	if _, err := crawler.NewFull(env, nil); err == nil {
		t.Error("full without sample should fail")
	}
	if _, err := crawler.NewFull(env, &sample.Sample{}); err == nil {
		t.Error("full with empty sample should fail")
	}
}

func TestSmartUnbiasedRuns(t *testing.T) {
	env, in, _ := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 6000, HiddenSize: 1500, LocalSize: 300, Seed: 15,
	}, 50, nil)
	smp := sample.Bernoulli(in.Hidden, 0.05, stats.NewRNG(8))
	c, err := crawler.NewSmart(env, crawler.SmartConfig{
		Sample: smp, Estimator: estimator.Unbiased{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "smartcrawl-unbiased" {
		t.Fatalf("Name = %q", c.Name())
	}
	res, err := c.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued == 0 {
		t.Fatal("unbiased crawler issued nothing")
	}
}

func TestCrawledRecordsAreDistinct(t *testing.T) {
	env, _, smp := fixtureEnv(t)
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
	res, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range res.Crawled {
		if r.ID != id {
			t.Fatal("crawled map must key records by their ID")
		}
	}
}

func TestNaiveSkipsCoveredRecords(t *testing.T) {
	// Two local records matching hidden entities that co-occur in one
	// result: after the first covers both, the second must not be
	// queried.
	tk := tokenize.New()
	u := fixture.New()
	env := &crawler.Env{
		Local:     u.Local,
		Searcher:  u.DB,
		Tokenizer: tk,
		Matcher:   match.NewExactOn(tk, nil, []int{0}),
	}
	c, _ := crawler.NewNaive(env, []int{0}, 99)
	res, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued > 4 {
		t.Fatalf("issued %d > 4 local records", res.QueriesIssued)
	}
	if res.CoveredCount != 4 {
		t.Fatalf("covered %d", res.CoveredCount)
	}
}

func BenchmarkSmartBiasedDBLP(b *testing.B) {
	in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
		CorpusSize: 20000, HiddenSize: 5000, LocalSize: 1000, Seed: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	tk := tokenize.New()
	db := hidden.New(in.Hidden, tk, 100,
		hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
	env := &crawler.Env{
		Local: in.Local, Searcher: db, Tokenizer: tk,
		Matcher: match.NewExactOn(tk, in.LocalKey, in.HiddenKey),
	}
	smp := sample.Bernoulli(in.Hidden, 0.01, stats.NewRNG(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
		if _, err := c.Run(200); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOnStepHook(t *testing.T) {
	env, _, smp := fixtureEnv(t)
	var steps []crawler.Step
	env.OnStep = func(s crawler.Step) { steps = append(steps, s) }
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp})
	res, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != res.QueriesIssued {
		t.Fatalf("hook fired %d times, %d queries issued", len(steps), res.QueriesIssued)
	}
	for i := range steps {
		if steps[i].Query.Key() != res.Steps[i].Query.Key() {
			t.Fatalf("hook step %d differs from trace", i)
		}
	}
}
