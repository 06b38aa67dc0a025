package crawler_test

import (
	"errors"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func TestOnlineCalibrationRuns(t *testing.T) {
	env, in, _ := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: 61,
	}, 50, nil)
	c, err := crawler.NewSmart(env, crawler.SmartConfig{OnlineCalibration: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "smartcrawl-online" {
		t.Fatalf("Name = %q", c.Name())
	}
	res, err := c.Run(80)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 80 && res.CoveredCount < in.Local.Len() {
		t.Fatalf("issued %d, covered %d", res.QueriesIssued, res.CoveredCount)
	}
	if res.CoveredCount == 0 {
		t.Fatal("online calibration covered nothing")
	}
}

func TestOnlineCalibrationRejectsSample(t *testing.T) {
	env, in, _ := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 6000, HiddenSize: 1500, LocalSize: 200, Seed: 62,
	}, 50, nil)
	smp := sample.Bernoulli(in.Hidden, 0.05, stats.NewRNG(1))
	if _, err := crawler.NewSmart(env, crawler.SmartConfig{
		OnlineCalibration: true, Sample: smp,
	}); err == nil {
		t.Fatal("online calibration plus sample should be rejected")
	}
}

// TestOnlineBeatsSimpleUnderTopK is the point of the extension: without
// any sample, calibrating from issued results should discount overflowing
// queries and beat frequency-only QSel-Simple under a tight top-k.
func TestOnlineBeatsSimpleUnderTopK(t *testing.T) {
	run := func(online bool) int {
		env, in, _ := dblpEnv(t, dataset.DBLPConfig{
			CorpusSize: 20000, HiddenSize: 5000, LocalSize: 1000, Seed: 63,
		}, 50, nil)
		cfg := crawler.SmartConfig{OnlineCalibration: online}
		c, err := crawler.NewSmart(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		cov := 0
		for _, h := range in.Truth {
			if h < 0 {
				continue
			}
			if _, ok := res.Crawled[h]; ok {
				cov++
			}
		}
		return cov
	}
	simple := run(false)
	online := run(true)
	t.Logf("qsel-simple=%d qsel-online=%d", simple, online)
	if online <= simple {
		t.Fatalf("online calibration (%d) should beat qsel-simple (%d) under tight top-k", online, simple)
	}
}

func TestOnlineDeterministic(t *testing.T) {
	run := func() *crawler.Result {
		env, _, _ := dblpEnv(t, dataset.DBLPConfig{
			CorpusSize: 6000, HiddenSize: 1500, LocalSize: 300, Seed: 64,
		}, 50, nil)
		c, _ := crawler.NewSmart(env, crawler.SmartConfig{OnlineCalibration: true})
		res, err := c.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CoveredCount != b.CoveredCount || len(a.Steps) != len(b.Steps) {
		t.Fatal("online calibration must be deterministic")
	}
	for i := range a.Steps {
		if a.Steps[i].Query.Key() != b.Steps[i].Query.Key() {
			t.Fatalf("step %d differs", i)
		}
	}
}

// TestOnlineResumeEqualsUninterrupted extends the checkpoint guarantee to
// the online-calibrated crawler: the calibration state is replayed from
// the step trace, so a resumed run matches the uninterrupted one.
func TestOnlineResumeEqualsUninterrupted(t *testing.T) {
	const b1, b2 = 25, 40
	mkEnv := func() *crawler.Env {
		env, _, _ := dblpEnv(t, dataset.DBLPConfig{
			CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: 66,
		}, 50, nil)
		return env
	}
	ref, _ := crawler.NewSmart(mkEnv(), crawler.SmartConfig{OnlineCalibration: true})
	refRes, err := ref.Run(b1 + b2)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := crawler.NewSmart(mkEnv(), crawler.SmartConfig{OnlineCalibration: true})
	res1, err := c1.Run(b1)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := crawler.NewSmart(mkEnv(), crawler.SmartConfig{
		OnlineCalibration: true, Resume: res1,
	})
	res2, err := c2.Run(b2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CoveredCount != refRes.CoveredCount || len(res2.Steps) != len(refRes.Steps) {
		t.Fatalf("resumed online crawl diverged: %d/%d steps, %d/%d covered",
			len(res2.Steps), len(refRes.Steps), res2.CoveredCount, refRes.CoveredCount)
	}
	for i := range refRes.Steps {
		if res2.Steps[i].Query.Key() != refRes.Steps[i].Query.Key() {
			t.Fatalf("step %d differs: %v vs %v", i, res2.Steps[i].Query, refRes.Steps[i].Query)
		}
	}
}

// TestPendingRequeueSurvivesReprioritize is the lost-requeue regression: a
// replayed pending query keeps its (never popped) heap entry while it is in
// flight, and an online-calibration Reprioritize in the same round drops
// every issued entry, that one included. When the query then fails and is
// requeued it must go back into the heap, not merely invalidate an entry
// that no longer exists — otherwise it is neither retried nor forfeited.
func TestPendingRequeueSurvivesReprioritize(t *testing.T) {
	tk := tokenize.New()
	words := []string{"alpha", "bravo", "charlie", "delta"}
	local := relational.NewTable("local", []string{"name"})
	remote := relational.NewTable("hidden", []string{"name"})
	pending := make([]crawler.PendingQuery, len(words))
	for i, w := range words {
		local.Append(w)
		remote.Append(w)
		pending[i] = crawler.PendingQuery{Query: deepweb.Query{w}, Benefit: 1}
	}
	db := hidden.New(remote, tk, 10, hidden.RankByHash(1), hidden.ModeConjunctive)
	env := &crawler.Env{
		Local:     local,
		Searcher:  &keyFault{Searcher: db, keys: map[string]bool{"delta": true}, times: 1, err: errors.New("transient")},
		Tokenizer: tk,
		Matcher:   match.NewExactOn(tk, []int{0}, []int{0}),
	}
	empty := &crawler.Result{
		Covered: make([]bool, len(words)),
		Matches: map[int]*relational.Record{},
		Crawled: map[int]*relational.Record{},
	}
	c, err := crawler.NewSmart(env, crawler.SmartConfig{
		OnlineCalibration: true, BatchSize: 4, Concurrency: 1, MaxAttempts: 3,
		Resume: empty, ResumePending: pending,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if res.CoveredCount != len(words) || res.QueriesIssued != len(words) {
		t.Fatalf("covered %d of %d with %d queries issued, want every record covered by %d queries (%s)",
			res.CoveredCount, len(words), res.QueriesIssued, len(words), rep)
	}
	if rep.Requeued != 1 || rep.Absorbed != len(words) || rep.Forfeited != 0 || !rep.Accounted() {
		t.Fatalf("report %s, want 4 absorbed after 1 requeue", rep)
	}
}
