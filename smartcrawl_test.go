package smartcrawl_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartcrawl"
)

// buildUniverse assembles a small end-to-end scenario through the public
// API only.
func buildUniverse(t *testing.T) (*smartcrawl.Table, *smartcrawl.Table, *smartcrawl.Env, *smartcrawl.Sample) {
	t.Helper()
	tk := smartcrawl.NewTokenizer()

	hiddenTable := smartcrawl.NewTable("yelp", []string{"name", "city", "rating"})
	hiddenTable.Append("Thai Noodle House", "Phoenix", "4.0")
	hiddenTable.Append("Saigon Ramen", "Tempe", "3.9")
	hiddenTable.Append("Thai House", "Phoenix", "4.1")
	hiddenTable.Append("Golden Noodle House", "Mesa", "4.2")
	hiddenTable.Append("Steak House", "Phoenix", "4.3")
	hiddenTable.Append("Curry Garden", "Tempe", "3.5")

	local := smartcrawl.NewTable("mine", []string{"name", "city"})
	local.Append("Thai Noodle House", "Phoenix")
	local.Append("Saigon Ramen", "Tempe")
	local.Append("Thai House", "Phoenix")
	local.Append("Golden Noodle House", "Mesa")

	db := smartcrawl.NewHiddenDatabase(hiddenTable, tk, smartcrawl.HiddenOptions{K: 3, RankColumn: 2})
	smp := smartcrawl.BernoulliSample(hiddenTable, 0.5, 7)
	env := &smartcrawl.Env{
		Local:     local,
		Searcher:  db,
		Tokenizer: tk,
		Matcher:   smartcrawl.NewExactMatcherOn(tk, nil, []int{0, 1}),
	}
	return local, hiddenTable, env, smp
}

func TestPublicAPISmartCrawl(t *testing.T) {
	_, _, env, smp := buildUniverse(t)
	c, err := smartcrawl.NewSmartCrawler(env, smartcrawl.SmartOptions{Sample: smp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount != 4 {
		t.Fatalf("covered %d of 4", res.CoveredCount)
	}
}

func TestPublicAPIEnrichEndToEnd(t *testing.T) {
	local, hiddenTable, env, smp := buildUniverse(t)
	c, err := smartcrawl.NewSmartCrawler(env, smartcrawl.SmartOptions{Sample: smp})
	if err != nil {
		t.Fatal(err)
	}
	mapping := smartcrawl.MatchSchemas(local, hiddenTable, env.Tokenizer)
	report, _, err := smartcrawl.Enrich(local, hiddenTable.Schema, c, 6,
		smartcrawl.EnrichOptions{Mapping: &mapping, Missing: "?"})
	if err != nil {
		t.Fatal(err)
	}
	if report.Enriched != 4 {
		t.Fatalf("enriched %d of 4 (%+v)", report.Enriched, report)
	}
	col := local.Col("h_rating")
	if col == -1 {
		t.Fatalf("h_rating column missing; schema = %v", local.Schema)
	}
	if got := local.Records[0].Value(col); got != "4.0" {
		t.Fatalf("record 0 rating = %q", got)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	_, _, env, smp := buildUniverse(t)
	naive, err := smartcrawl.NewNaiveCrawler(env, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	resN, err := naive.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if resN.CoveredCount == 0 {
		t.Fatal("naive covered nothing")
	}
	full, err := smartcrawl.NewFullCrawler(env, smp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(4); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIKeywordSampler draws samples through the search interface
// alone, with KeywordSample and with its zoom-in variant RandomWalkSample.
func TestPublicAPIKeywordSampler(t *testing.T) {
	local, _, env, _ := buildUniverse(t)
	pool := smartcrawl.SingleKeywordPool(local, env.Tokenizer)
	if len(pool) == 0 {
		t.Fatal("empty seed pool")
	}
	smp, err := smartcrawl.KeywordSample(env.Searcher, pool, env.Tokenizer,
		smartcrawl.KeywordSampleConfig{Target: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if smp.Len() < 2 {
		t.Fatalf("sample size %d", smp.Len())
	}
	walk, err := smartcrawl.RandomWalkSample(env.Searcher, pool, env.Tokenizer,
		smartcrawl.RandomWalkSampleConfig{Target: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if walk.Len() < 2 {
		t.Fatalf("random-walk sample size %d", walk.Len())
	}
}

func TestPublicAPINonConjunctive(t *testing.T) {
	_, hiddenTable, env, _ := buildUniverse(t)
	tk := env.Tokenizer
	db := smartcrawl.NewHiddenDatabase(hiddenTable, tk,
		smartcrawl.HiddenOptions{K: 2, RankColumn: 2, NonConjunctive: true})
	recs, err := db.Search(smartcrawl.Query{"noodle", "thai"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	// The all-keyword match ranks first even though other records have
	// higher ratings.
	if !strings.Contains(recs[0].Value(0), "Thai Noodle") {
		t.Fatalf("first result = %q", recs[0].Value(0))
	}
}

func TestPublicAPIJaccardMatcher(t *testing.T) {
	tk := smartcrawl.NewTokenizer()
	m := smartcrawl.NewJaccardMatcher(tk, 0.5)
	a := &smartcrawl.Record{ID: 0, Values: []string{"alpha beta gamma"}}
	b := &smartcrawl.Record{ID: 1, Values: []string{"alpha beta delta"}}
	if !m.Match(a, b) {
		t.Fatal("0.5 Jaccard should match at threshold 0.5")
	}
}

// TestPublicAPIBlockedMatcher crawls with "name Jaccard AND city exact":
// the block finds name candidates, the city verifies them.
func TestPublicAPIBlockedMatcher(t *testing.T) {
	_, _, env, smp := buildUniverse(t)
	tk := env.Tokenizer
	m := smartcrawl.NewBlockedMatcher(
		smartcrawl.NewJaccardMatcherOn(tk, 0.5, []int{0}, []int{0}),
		smartcrawl.NewExactMatcherOn(tk, []int{1}, []int{1}))
	local := &smartcrawl.Record{Values: []string{"Thai Noodle House", "Phoenix"}}
	if !m.Match(local, &smartcrawl.Record{Values: []string{"Thai House", "Phoenix"}}) {
		t.Error("similar name in the same city should match")
	}
	if m.Match(local, &smartcrawl.Record{Values: []string{"Thai Noodle House", "Mesa"}}) {
		t.Error("same name in another city should not match")
	}

	env.Matcher = m
	c, err := smartcrawl.NewSmartCrawler(env, smartcrawl.SmartOptions{Sample: smp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount != 4 {
		t.Fatalf("covered %d of 4", res.CoveredCount)
	}
}

// TestPublicAPIRunEnrichment runs the engine request the CLI and crawld
// share, starting from the CLI defaults, against a hidden table on disk.
func TestPublicAPIRunEnrichment(t *testing.T) {
	local, hiddenTable, _, _ := buildUniverse(t)
	hiddenPath := filepath.Join(t.TempDir(), "hidden.csv")
	f, err := os.Create(hiddenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := hiddenTable.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	req := smartcrawl.DefaultEnrichmentRequest()
	req.Local, req.Hidden = local, hiddenPath
	req.Budget, req.K, req.RankColumn, req.Theta = 6, 3, 2, 0.5
	req.EnrichColumns = []string{"rating"}
	var out *smartcrawl.EnrichmentOutcome
	if out, err = smartcrawl.RunEnrichment(&req); err != nil {
		t.Fatal(err)
	}
	if out.Report.Enriched != 4 || out.Local != local {
		t.Fatalf("enriched %d of 4 (%+v)", out.Report.Enriched, out.Report)
	}
	col := local.Col("h_rating")
	if col == -1 {
		t.Fatalf("h_rating column missing; schema = %v", local.Schema)
	}
	rating := map[string]string{}
	for _, h := range hiddenTable.Records {
		rating[h.Value(0)] = h.Value(2)
	}
	for _, r := range local.Records {
		if v := r.Value(col); v != "" && v != rating[r.Value(0)] {
			t.Errorf("%s enriched with rating %q, hidden table has %q", r.Value(0), v, rating[r.Value(0)])
		}
	}
}
