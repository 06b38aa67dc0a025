package formweb

import (
	"strconv"
	"sync/atomic"
	"testing"

	"smartcrawl/internal/dataset"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// countingMatcher counts Joiner probes: not being an Exact, Jaccard or
// BlockedAnd, it sends the Joiner down its full-scan path, which calls
// Match once per local record per probe, so the calls whose local argument
// is the first local record count the probes.
type countingMatcher struct {
	inner  match.Matcher
	first  *relational.Record
	probes atomic.Int64
}

func (m *countingMatcher) Match(d, h *relational.Record) bool {
	if d == m.first {
		m.probes.Add(1)
	}
	return m.inner.Match(d, h)
}

// returnCounter sums the records every form query returns.
type returnCounter struct {
	Searcher
	returned int
}

func (s *returnCounter) SearchForm(q Query) ([]*relational.Record, error) {
	recs, err := s.Searcher.SearchForm(q)
	s.returned += len(recs)
	return recs, err
}

// TestCrawlMatchesEachCrawledRecordOnce is the form crawl's twin of the
// keyword crawl's probe guard: city and category filters overlap, so
// queries re-return records, yet the Joiner is probed once per crawled
// record. Coverage must still be exactly the local records some crawled
// record matches.
func TestCrawlMatchesEachCrawledRecordOnce(t *testing.T) {
	in, err := dataset.GenerateYelp(dataset.YelpConfig{HiddenSize: 1000, LocalSize: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Local rows are every tenth business with its aligned filter values.
	local := relational.NewTable("d", []string{"name", "city", "category"})
	for i := 0; i < in.Hidden.Len(); i += 10 {
		r := in.Hidden.Records[i]
		local.Append(r.Value(0), r.Value(1), r.Value(2))
	}
	tk := tokenize.New()
	db := &returnCounter{Searcher: New(in.Hidden, []int{1, 2}, 20, func(r *relational.Record) float64 {
		f, _ := strconv.ParseFloat(r.Value(3), 64)
		return f
	})}
	pool, err := GeneratePool(local, []int{1, 2}, []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact := match.NewExactOn(tk, []int{0, 1}, []int{0, 1})
	m := &countingMatcher{inner: exact, first: local.Records[0]}
	res, err := Crawl(local, db, pool, tk, m, []int{1, 2}, []int{1, 2}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if db.returned <= len(res.Crawled) {
		t.Fatalf("case not exercised: %d records returned, %d crawled", db.returned, len(res.Crawled))
	}
	if got := m.probes.Load(); got != int64(len(res.Crawled)) {
		t.Fatalf("%d Joiner probes, want one per crawled record (%d)", got, len(res.Crawled))
	}
	crawledKeys := make(map[string]bool, len(res.Crawled))
	for _, h := range res.Crawled {
		crawledKeys[match.KeyOn(h, tk, exact.HCols)] = true
	}
	covered := 0
	for d, r := range local.Records {
		want := crawledKeys[match.KeyOn(r, tk, exact.DCols)]
		if res.Covered[d] != want {
			t.Fatalf("Covered[%d] = %v, but a crawled record matches it: %v", d, res.Covered[d], want)
		}
		if want {
			covered++
		}
	}
	if covered != res.CoveredCount || covered == 0 {
		t.Fatalf("CoveredCount %d, oracle %d", res.CoveredCount, covered)
	}
}
