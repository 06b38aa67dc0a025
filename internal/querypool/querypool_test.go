package querypool

import (
	"reflect"
	"testing"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/fixture"
	"smartcrawl/internal/index"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func TestNaiveQuery(t *testing.T) {
	tk := tokenize.New()
	r := &relational.Record{ID: 0, Values: []string{"Thai Noodle House", "Vancouver"}}
	q := NaiveQuery(r, tk, Config{})
	want := deepweb.Query{"house", "noodle", "thai", "vancouver"}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("NaiveQuery = %v, want %v", q, want)
	}
}

func TestNaiveQueryKeyColumns(t *testing.T) {
	tk := tokenize.New()
	r := &relational.Record{ID: 0, Values: []string{"Thai House", "Vancouver"}}
	q := NaiveQuery(r, tk, Config{KeyColumns: []int{0}})
	if !reflect.DeepEqual(q, deepweb.Query{"house", "thai"}) {
		t.Fatalf("NaiveQuery = %v", q)
	}
}

func TestNaiveQueryTruncation(t *testing.T) {
	tk := tokenize.New()
	r := &relational.Record{ID: 0, Values: []string{"e d c b a"}}
	q := NaiveQuery(r, tk, Config{MaxNaiveKeywords: 3})
	// First 3 distinct in appearance order (e, d, c), then sorted.
	if !reflect.DeepEqual(q, deepweb.Query{"c", "d", "e"}) {
		t.Fatalf("NaiveQuery = %v", q)
	}
}

func TestNaiveQueryEmptyRecord(t *testing.T) {
	tk := tokenize.New()
	r := &relational.Record{ID: 0, Values: []string{"of the"}}
	if q := NaiveQuery(r, tk, Config{}); q != nil {
		t.Fatalf("NaiveQuery on stop-word-only record = %v, want nil", q)
	}
}

func TestGenerateRunningExample(t *testing.T) {
	u := fixture.New()
	p := Generate(u.Local, u.Tokenizer, Config{MinSupport: 2, MaxQueryLen: 3})

	// Every record's naive query must be present (principle 1).
	for _, r := range u.Local.Records {
		nq := NaiveQuery(r, u.Tokenizer, Config{})
		q := p.Find(nq)
		if q == nil {
			// d4's naive query has 4 keywords; mined queries are
			// capped at 3, so it must still appear as naive.
			t.Fatalf("naive query %v for record %d missing", nq, r.ID)
		}
		if !q.Naive {
			t.Fatalf("query %v should be flagged naive", nq)
		}
	}

	// Closed frequent sets of the fixture: {thai house} (3) and
	// {thai noodle house} (2). {noodle}, {house}, {thai} etc. are
	// dominated.
	if q := p.Find(deepweb.Query{"house", "thai"}); q == nil {
		t.Error("mined query {house thai} missing")
	}
	if q := p.Find(deepweb.Query{"house", "noodle", "thai"}); q == nil {
		t.Error("mined query {house noodle thai} missing")
	} else if !q.Naive {
		t.Error("{house noodle thai} is also d1's naive query")
	}
	if p.Find(deepweb.Query{"noodle"}) != nil {
		t.Error("{noodle} should be dominance-pruned")
	}
	if p.Find(deepweb.Query{"house"}) != nil {
		t.Error("{house} should be dominance-pruned (dominated by {house thai})")
	}
}

func TestGenerateIDsDenseAndUnique(t *testing.T) {
	u := fixture.New()
	p := Generate(u.Local, u.Tokenizer, Config{})
	seen := map[string]bool{}
	for i, q := range p.Queries {
		if q.ID != i {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		if seen[q.Keywords.Key()] {
			t.Fatalf("duplicate query %v", q.Keywords)
		}
		seen[q.Keywords.Key()] = true
		if err := deepweb.Validate(q.Keywords); err != nil {
			t.Fatalf("pool query %v invalid: %v", q.Keywords, err)
		}
	}
}

// Every mined pool query must genuinely have |q(D)| ≥ t, and every local
// record must be covered by at least one pool query (its naive query).
func TestGenerateInvariants(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(77)
	zipf := stats.NewZipf(rng, 1.0, 50)
	vocabWords := make([]string, 50)
	for i := range vocabWords {
		vocabWords[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('0'+i%10))
	}
	local := relational.NewTable("d", []string{"doc"})
	for i := 0; i < 200; i++ {
		doc := ""
		for j := 0; j < 4; j++ {
			doc += vocabWords[zipf.Draw()] + " "
		}
		local.Append(doc)
	}
	const minSup = 3
	p := Generate(local, tk, Config{MinSupport: minSup, MaxQueryLen: 3})
	inv := index.BuildInvertedIDs(local.Records, tk, p.Dict, 1)

	naiveCount := 0
	for _, q := range p.Queries {
		freq := inv.Count(q.IDs)
		if q.Naive {
			naiveCount++
			if freq < 1 {
				t.Fatalf("naive query %v matches no record", q.Keywords)
			}
			continue
		}
		if freq < minSup {
			t.Fatalf("mined query %v has |q(D)| = %d < %d", q.Keywords, freq, minSup)
		}
	}
	if naiveCount == 0 {
		t.Fatal("no naive queries generated")
	}
	// Coverage: each record's naive query is in the pool.
	for _, r := range local.Records {
		if p.Find(NaiveQuery(r, tk, Config{})) == nil {
			t.Fatalf("record %d has no naive query in pool", r.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	u := fixture.New()
	a := Generate(u.Local, u.Tokenizer, Config{})
	b := Generate(u.Local, u.Tokenizer, Config{})
	if a.Len() != b.Len() {
		t.Fatal("non-deterministic pool size")
	}
	for i := range a.Queries {
		if !reflect.DeepEqual(a.Queries[i], b.Queries[i]) {
			t.Fatalf("query %d differs between runs", i)
		}
	}
}

func TestPoolFindMiss(t *testing.T) {
	u := fixture.New()
	p := Generate(u.Local, u.Tokenizer, Config{})
	if p.Find(deepweb.Query{"zzz"}) != nil {
		t.Fatal("Find of unknown query should be nil")
	}
}

// makeZipfTable builds a mid-sized zipfy corpus for the sampled-mining
// tests.
func makeZipfTable(n int, seed uint64) *relational.Table {
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(rng, 1.0, 60)
	vocabWords := make([]string, 60)
	for i := range vocabWords {
		vocabWords[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('0'+i%10))
	}
	local := relational.NewTable("d", []string{"doc"})
	for i := 0; i < n; i++ {
		doc := ""
		for j := 0; j < 5; j++ {
			doc += vocabWords[zipf.Draw()] + " "
		}
		local.Append(doc)
	}
	return local
}

// Sampled mining with an exact recount must never emit a mined query
// whose true corpus support is below MinSupport (precision), and must be
// a pure function of its configuration (determinism).
func TestGenerateSampledExactSupports(t *testing.T) {
	tk := tokenize.New()
	local := makeZipfTable(2000, 41)
	const minSup = 10
	dict := index.ScanDict(local.Records, tk)
	inv := index.BuildCompressedInvertedIDs(local.Records, tk, dict)
	cfg := Config{
		MinSupport: minSup, MaxQueryLen: 3,
		Dict: dict, SampleSize: 300, SampleSeed: 9, Count: inv.Count,
	}
	p := Generate(local, tk, cfg)

	mined := 0
	for _, q := range p.Queries {
		if q.Naive {
			continue
		}
		mined++
		if sup := inv.Count(q.IDs); sup < minSup {
			t.Fatalf("sampled mined query %v has exact support %d < %d", q.Keywords, sup, minSup)
		}
	}
	if mined == 0 {
		t.Fatal("sampled mining produced no frequent queries")
	}

	// Recall sanity: the sampled pool should find most of the full pool's
	// mined queries on this heavily zipfed corpus.
	full := Generate(local, tk, Config{MinSupport: minSup, MaxQueryLen: 3})
	fullMined, hit := 0, 0
	for _, q := range full.Queries {
		if q.Naive {
			continue
		}
		fullMined++
		if p.Find(q.Keywords) != nil {
			hit++
		}
	}
	if fullMined == 0 {
		t.Fatal("full mining produced no frequent queries")
	}
	if ratio := float64(hit) / float64(fullMined); ratio < 0.8 {
		t.Fatalf("sampled pool recalls only %d/%d (%.0f%%) of full mined queries", hit, fullMined, 100*ratio)
	}

	q := Generate(local, tk, cfg)
	if q.Len() != p.Len() {
		t.Fatalf("sampled pool non-deterministic: %d vs %d queries", q.Len(), p.Len())
	}
	for i := range p.Queries {
		if !reflect.DeepEqual(p.Queries[i], q.Queries[i]) {
			t.Fatalf("sampled pool query %d differs between runs", i)
		}
	}
}

// A pre-built dictionary (the corpus-cache path) must reproduce the
// scanned pool exactly: same dictionary contents means same IDs, same
// transactions, same mining.
func TestGenerateWithPrebuiltDict(t *testing.T) {
	tk := tokenize.New()
	local := makeZipfTable(500, 13)
	scanned := Generate(local, tk, Config{MinSupport: 3, MaxQueryLen: 3})
	prebuilt := Generate(local, tk, Config{MinSupport: 3, MaxQueryLen: 3, Dict: index.ScanDict(local.Records, tk)})
	if scanned.Len() != prebuilt.Len() {
		t.Fatalf("pool sizes differ: %d vs %d", scanned.Len(), prebuilt.Len())
	}
	for i := range scanned.Queries {
		if !reflect.DeepEqual(scanned.Queries[i], prebuilt.Queries[i]) {
			t.Fatalf("query %d differs under prebuilt dict", i)
		}
	}
}
