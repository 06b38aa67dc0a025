package crawler_test

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/relational"
)

// searchLog counts every search by query key and fails the searches of
// one query.
type searchLog struct {
	deepweb.Searcher
	fail string

	mu     sync.Mutex
	counts map[string]int
	total  int
}

func (s *searchLog) Search(q deepweb.Query) ([]*relational.Record, error) {
	key := q.Key()
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make(map[string]int)
	}
	s.counts[key]++
	s.total++
	s.mu.Unlock()
	if key == s.fail {
		return nil, errors.New("strict test: backend down")
	}
	return s.Searcher.Search(q)
}

func (s *searchLog) searches() (int, map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total, s.counts
}

// firstRoundSearches records how many searches a session had made when
// its first round completed.
type firstRoundSearches struct {
	*durable.Sink
	log   *searchLog
	first int
}

func (f *firstRoundSearches) RoundCompleted(res *crawler.Result) error {
	if f.first < 0 {
		f.first, _ = f.log.searches()
	}
	return f.Sink.RoundCompleted(res)
}

// TestStrictCrawlKeepsPaidResults: when the third query of a four-query
// round fails in a strict (non-resilient) crawl, the crawl still absorbs
// and journals the round's other results, which it has already paid for,
// before it returns the error. Recovery then leaves only the failed query
// pending, and the resumed session spends exactly one search on the round.
func TestStrictCrawlKeepsPaidResults(t *testing.T) {
	env, smp := checkpointSetup(t)
	cfg := crawler.SmartConfig{Sample: smp, Estimator: estimator.Biased{}, BatchSize: 4}

	// A clean crawl shows the third round's selection order.
	ref, err := crawler.NewSmart(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes.Steps) < 12 {
		t.Fatalf("reference crawl took %d steps, want at least 12", len(refRes.Steps))
	}
	failed, last := refRes.Steps[10].Query.Key(), refRes.Steps[11].Query.Key()

	dir := t.TempDir()
	opts := durable.Options{
		Snapshot: filepath.Join(dir, "cp.json"), Journal: filepath.Join(dir, "cp.wal"),
		LocalLen: env.Local.Len(),
	}
	sink1, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	log1 := &searchLog{Searcher: env.Searcher, fail: failed}
	env1 := *env
	env1.Searcher = log1
	cfg.Durability = sink1
	c1, err := crawler.NewSmart(&env1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(16); err == nil || !strings.Contains(err.Error(), failed) {
		t.Fatalf("strict crawl returned %v, want the failure of %q", err, failed)
	}
	if err := sink1.Close(nil); err != nil {
		t.Fatal(err)
	}
	if total, _ := log1.searches(); total != 12 {
		t.Fatalf("session 1 made %d searches, want 12 (three full rounds)", total)
	}

	rec, err := durable.Recover(opts.Snapshot, opts.Journal, env.Local.Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].Query.Key() != failed {
		keys := make([]string, len(rec.Pending))
		for i, p := range rec.Pending {
			keys[i] = p.Query.Key()
		}
		t.Fatalf("recovery left %q pending, want only %q", keys, failed)
	}
	if rec.Result.QueriesIssued != 11 {
		t.Fatalf("recovery replayed %d absorbed queries, want 11", rec.Result.QueriesIssued)
	}

	// Resume with a healthy backend.
	sink2, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	log2 := &searchLog{Searcher: env.Searcher}
	env2 := *env
	env2.Searcher = log2
	counted := &firstRoundSearches{Sink: sink2, log: log2, first: -1}
	cfg.Durability = counted
	cfg.Resume, cfg.ResumePending = sink2.Recovered().Result, sink2.Recovered().Pending
	c2, err := crawler.NewSmart(&env2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(res); err != nil {
		t.Fatal(err)
	}
	_, counts := log2.searches()
	if counted.first != 1 || counts[failed] != 1 || counts[last] != 0 {
		t.Fatalf("resumed round made %d searches (%q %d times, %q %d times), want one search of %q",
			counted.first, failed, counts[failed], last, counts[last], failed)
	}
	issued := 0
	for _, s := range res.Steps {
		if k := s.Query.Key(); k == failed || k == last {
			issued++
		}
	}
	if issued != 2 {
		t.Fatalf("resumed result holds %d steps of %q and %q, want one each", issued, failed, last)
	}
}
