package hidden_test

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/fixture"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func names(recs []*relational.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Value(0)
	}
	return out
}

func TestConjunctiveSolidQuery(t *testing.T) {
	u := fixture.New()
	// "saigon ramen" matches only h2 — a solid query, fully returned.
	got, err := u.DB.Search(deepweb.Query{"ramen", "saigon"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names(got), []string{"Saigon Ramen"}) {
		t.Fatalf("result = %v", names(got))
	}
}

func TestConjunctiveOverflowTopK(t *testing.T) {
	u := fixture.New()
	// "house" matches h1,h3,h4,h5,h7,h9 (6 records) > k=2; ranked by
	// rating desc the top-2 are h9 (4.9) and h5 (4.3).
	got, err := u.DB.Search(deepweb.Query{"house"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"House of Pancakes", "Steak House"}
	if !reflect.DeepEqual(names(got), want) {
		t.Fatalf("top-2 = %v, want %v", names(got), want)
	}
}

func TestSearchDeterministic(t *testing.T) {
	u := fixture.New()
	q := deepweb.Query{"thai"}
	a, _ := u.DB.Search(q)
	b, _ := u.DB.Search(q)
	if !reflect.DeepEqual(names(a), names(b)) {
		t.Fatal("repeated query must return identical results")
	}
}

func TestSearchRejectsMalformedQueries(t *testing.T) {
	u := fixture.New()
	for _, q := range []deepweb.Query{
		nil,
		{},
		{"Thai"},   // not lowercase
		{"b", "a"}, // not sorted
		{"a", "a"}, // duplicate
		{""},       // empty keyword
	} {
		if _, err := u.DB.Search(q); err == nil {
			t.Errorf("query %v should be rejected", q)
		}
	}
}

func TestOracleAccessors(t *testing.T) {
	u := fixture.New()
	if u.DB.Size() != 9 {
		t.Fatalf("Size = %d", u.DB.Size())
	}
	if got := u.DB.TrueFrequency(deepweb.Query{"house"}); got != 6 {
		t.Fatalf("TrueFrequency(house) = %d", got)
	}
	if !u.DB.IsOverflowing(deepweb.Query{"house"}) {
		t.Fatal("house should overflow at k=2")
	}
	if u.DB.IsOverflowing(deepweb.Query{"ramen", "saigon"}) {
		t.Fatal("saigon ramen should be solid")
	}
	if got := len(u.DB.FullMatch(deepweb.Query{"house"})); got != 6 {
		t.Fatalf("FullMatch(house) = %d records", got)
	}
	if u.DB.K() != 2 {
		t.Fatalf("K = %d", u.DB.K())
	}
}

func TestRankedModeAllKeywordsOnTop(t *testing.T) {
	tk := tokenize.New()
	tab := relational.NewTable("h", []string{"name", "rating"})
	tab.Append("Thai Noodle House", "1.0") // matches both keywords, low rating
	tab.Append("Noodle Bar", "5.0")        // one keyword, high rating
	tab.Append("Thai Garden", "4.0")       // one keyword
	tab.Append("Steak Place", "4.5")       // zero keywords
	db := hidden.New(tab, tk, 2, hidden.RankByNumericColumn(1), hidden.ModeRanked)

	got, err := db.Search(deepweb.Query{"noodle", "thai"})
	if err != nil {
		t.Fatal(err)
	}
	// The all-keyword match must rank first despite its lower rating
	// (Yelp behaviour per §2); second slot goes to the best partial match.
	want := []string{"Thai Noodle House", "Noodle Bar"}
	if !reflect.DeepEqual(names(got), want) {
		t.Fatalf("ranked result = %v, want %v", names(got), want)
	}
}

func TestRankedModeNoMatches(t *testing.T) {
	u := fixture.New()
	tk := tokenize.New()
	db := hidden.New(u.HiddenTab, tk, 2, hidden.RankByHash(1), hidden.ModeRanked)
	got, err := db.Search(deepweb.Query{"zzz"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty result, got %v", names(got))
	}
}

func TestSolidQueryNeverTruncated(t *testing.T) {
	// Property over random data: if |q(H)| <= k the full match set is
	// returned; if |q(H)| > k exactly k records are returned, each
	// satisfying the query.
	tk := tokenize.New()
	rng := stats.NewRNG(11)
	vocab := []string{"aa", "bb", "cc", "dd", "ee"}
	tab := relational.NewTable("h", []string{"doc"})
	for i := 0; i < 200; i++ {
		doc := ""
		for j := 0; j < 3; j++ {
			doc += vocab[rng.Intn(len(vocab))] + " "
		}
		tab.Append(doc)
	}
	const k = 5
	db := hidden.New(tab, tk, k, hidden.RankByHash(7), hidden.ModeConjunctive)

	for trial := 0; trial < 100; trial++ {
		w1, w2 := vocab[rng.Intn(5)], vocab[rng.Intn(5)]
		var q deepweb.Query
		if w1 == w2 {
			q = deepweb.Query{w1}
		} else if w1 < w2 {
			q = deepweb.Query{w1, w2}
		} else {
			q = deepweb.Query{w2, w1}
		}
		res, err := db.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		truth := db.TrueFrequency(q)
		if truth <= k && len(res) != truth {
			t.Fatalf("solid query %v returned %d of %d", q, len(res), truth)
		}
		if truth > k && len(res) != k {
			t.Fatalf("overflowing query %v returned %d, want %d", q, len(res), k)
		}
		for _, r := range res {
			set := tk.Set(r.Document())
			for _, w := range q {
				if _, ok := set[w]; !ok {
					t.Fatalf("record %v does not satisfy %v", r, q)
				}
			}
		}
	}
}

func TestTopKRespectsRanking(t *testing.T) {
	// With RankByNumericColumn, every returned record must outrank (or
	// tie) every matching record that was cut.
	u := fixture.New()
	q := deepweb.Query{"thai"}
	res, _ := u.DB.Search(q)
	full := u.DB.FullMatch(q)
	if len(res) != 2 || len(full) != 4 {
		t.Fatalf("setup: res=%d full=%d", len(res), len(full))
	}
	minReturned := 10.0
	for _, r := range res {
		v, err := strconv.ParseFloat(r.Value(1), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < minReturned {
			minReturned = v
		}
	}
	returned := map[int]bool{}
	for _, r := range res {
		returned[r.ID] = true
	}
	for _, r := range full {
		if returned[r.ID] {
			continue
		}
		v, err := strconv.ParseFloat(r.Value(1), 64)
		if err != nil {
			t.Fatal(err)
		}
		if v > minReturned {
			t.Fatalf("cut record %v outranks returned minimum %v", r, minReturned)
		}
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k <= 0")
		}
	}()
	u := fixture.New()
	hidden.New(u.HiddenTab, tokenize.New(), 0, hidden.RankByHash(1), hidden.ModeConjunctive)
}

func TestRankFuncs(t *testing.T) {
	r := &relational.Record{ID: 1, Values: []string{"abc", "2019"}}
	if hidden.RankByNumericColumn(1)(r) != 2019 {
		t.Fatal("numeric rank")
	}
	if hidden.RankByNumericColumn(0)(r) >= 0 {
		t.Fatal("unparsable values must rank last")
	}
	if hidden.RankByHash(1)(r) == hidden.RankByHash(2)(r) {
		t.Fatal("different seeds should give different hashes")
	}
	if hidden.RankByDocLength()(r) != -float64(len("abc 2019")) {
		t.Fatal("doc length rank")
	}
}

// TestRankedModePaddingIsPopularityStable checks the realistic padding
// behaviour: tail results (partial matches) follow the global relevance
// score, so two queries sharing no full matches largely return the same
// popular records rather than fresh per-query entities.
func TestRankedModePaddingIsPopularityStable(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(23)
	tab := relational.NewTable("h", []string{"name", "rating"})
	types := []string{"house", "bar", "grill", "cafe"}
	cuisines := []string{"thai", "greek", "cuban", "indian"}
	for i := 0; i < 400; i++ {
		tab.Append(
			cuisines[rng.Intn(4)]+" "+types[rng.Intn(4)],
			fmt.Sprintf("%.2f", rng.Float64()*5),
		)
	}
	const k = 20
	db := hidden.New(tab, tk, k, hidden.RankByNumericColumn(1), hidden.ModeRanked)

	resA, err := db.Search(deepweb.Query{"house", "thai"})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := db.Search(deepweb.Query{"greek", "grill"})
	if err != nil {
		t.Fatal(err)
	}
	// Tail (non-full-match) portions should overlap substantially: both
	// queries' partial-match candidate sets cover most of the table, and
	// the same top-rated records fill the tail.
	tailA := tailSet(t, tk, resA, deepweb.Query{"house", "thai"})
	tailB := tailSet(t, tk, resB, deepweb.Query{"greek", "grill"})
	if len(tailA) == 0 || len(tailB) == 0 {
		t.Skip("no padding produced at this k")
	}
	common := 0
	for id := range tailA {
		if tailB[id] {
			common++
		}
	}
	minTail := len(tailA)
	if len(tailB) < minTail {
		minTail = len(tailB)
	}
	if frac := float64(common) / float64(minTail); frac < 0.5 {
		t.Fatalf("padding overlap %.2f — tails should be popularity-stable", frac)
	}
}

func tailSet(t *testing.T, tk *tokenize.Tokenizer, recs []*relational.Record, q deepweb.Query) map[int]bool {
	t.Helper()
	out := map[int]bool{}
	for _, r := range recs {
		set := tk.Set(r.Document())
		full := true
		for _, w := range q {
			if _, ok := set[w]; !ok {
				full = false
				break
			}
		}
		if !full {
			out[r.ID] = true
		}
	}
	return out
}

// referenceSearch is the brute-force specification of Database.Search. It
// scans every record's token set and keeps the matches: records holding
// every keyword in conjunctive mode, any keyword in ranked mode. It orders
// them by (full match first, score desc, ID asc) and cuts at k. A
// conjunctive result of at most k records comes back in ascending ID
// order instead.
func referenceSearch(tab *relational.Table, tk *tokenize.Tokenizer, rank hidden.RankFunc, k int, mode hidden.Mode, q deepweb.Query) []int {
	type cand struct {
		id    int
		full  bool
		score float64
	}
	var cands []cand
	for _, r := range tab.Records {
		set := tk.Set(r.Document())
		n := 0
		for _, w := range q {
			if _, ok := set[w]; ok {
				n++
			}
		}
		if n == len(q) || (mode == hidden.ModeRanked && n > 0) {
			cands = append(cands, cand{r.ID, n == len(q), rank(r)})
		}
	}
	if mode == hidden.ModeConjunctive && len(cands) <= k {
		sort.Slice(cands, func(a, b int) bool { return cands[a].id < cands[b].id })
	} else {
		sort.Slice(cands, func(a, b int) bool {
			ca, cb := cands[a], cands[b]
			if ca.full != cb.full {
				return ca.full
			}
			if ca.score != cb.score {
				return ca.score > cb.score
			}
			return ca.id < cb.id
		})
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	ids := make([]int, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	return ids
}

// refVocab is the keyword universe of the reference tests. The last two
// words never occur in a table, so queries also carry keywords absent
// from H.
var refVocab = []string{"aa", "bb", "cc", "dd", "ee", "ff", "zx", "zy"}

// refTable builds a random table whose score column draws from three
// values plus an unparsable one, so rank ties are everywhere.
func refTable(rng *stats.RNG) *relational.Table {
	tab := relational.NewTable("h", []string{"doc", "score"})
	scores := []string{"1", "2", "3", "n/a"}
	n := rng.Intn(60)
	for i := 0; i < n; i++ {
		doc := ""
		for j := 1 + rng.Intn(4); j > 0; j-- {
			doc += refVocab[rng.Intn(len(refVocab)-2)] + " "
		}
		tab.Append(doc, scores[rng.Intn(len(scores))])
	}
	return tab
}

// refQuery draws a sorted, unique query of one to four keywords.
func refQuery(rng *stats.RNG) deepweb.Query {
	perm := rng.Perm(len(refVocab))
	q := make([]string, 1+rng.Intn(4))
	for i := range q {
		q[i] = refVocab[perm[i]]
	}
	sort.Strings(q)
	return deepweb.Query(q)
}

func recordIDs(recs []*relational.Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	return ids
}

// checkAgainstReference runs every query against a database over tab in
// both modes and requires exactly the reference's records in the
// reference's order.
func checkAgainstReference(t *testing.T, tab *relational.Table, k int, queries []deepweb.Query) {
	t.Helper()
	tk := tokenize.New()
	rank := hidden.RankByNumericColumn(1)
	for _, mode := range []hidden.Mode{hidden.ModeConjunctive, hidden.ModeRanked} {
		db := hidden.New(tab, tk, k, rank, mode)
		for _, q := range queries {
			got, err := db.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSearch(tab, tk, rank, k, mode, q)
			if g := recordIDs(got); !reflect.DeepEqual(g, want) {
				t.Fatalf("mode %d, k=%d, %d records, query %v: got IDs %v, want %v",
					mode, k, tab.Len(), q, g, want)
			}
		}
	}
}

// TestSearchMatchesReference pins the exact output of Search — membership,
// order and the k-cut — against the brute-force reference, in both modes,
// on random tables with many score ties, keywords absent from H, and
// match counts on both sides of k.
func TestSearchMatchesReference(t *testing.T) {
	rng := stats.NewRNG(2024)
	for trial := 0; trial < 300; trial++ {
		tab := refTable(rng)
		k := 1 + rng.Intn(8)
		queries := make([]deepweb.Query, 10)
		for i := range queries {
			queries[i] = refQuery(rng)
		}
		checkAgainstReference(t, tab, k, queries)
	}
}

// FuzzHiddenSearch drives the reference comparison from a seed (table and
// k) and a free-form query string, which is tokenized into a valid query.
func FuzzHiddenSearch(f *testing.F) {
	f.Add(uint64(1), "aa")
	f.Add(uint64(2), "bb cc")
	f.Add(uint64(3), "aa dd zx")
	f.Add(uint64(4), "cc dd ee ff")
	f.Add(uint64(5), "zy")
	f.Fuzz(func(t *testing.T, seed uint64, query string) {
		q := deepweb.Query(tokenize.New().NormalizeQuery(query))
		if deepweb.Validate(q) != nil {
			return
		}
		rng := stats.NewRNG(seed)
		checkAgainstReference(t, refTable(rng), 1+rng.Intn(8), []deepweb.Query{q})
	})
}

// TestSearchConcurrent: Search keeps no state between calls, so searches
// from many goroutines at once (dispatcher workers, HTTP handlers) must
// each return exactly what a lone search returns. Run under -race.
func TestSearchConcurrent(t *testing.T) {
	rng := stats.NewRNG(77)
	tab := refTable(rng)
	for tab.Len() < 40 {
		tab = refTable(rng)
	}
	queries := make([]deepweb.Query, 64)
	for i := range queries {
		queries[i] = refQuery(rng)
	}
	for _, mode := range []hidden.Mode{hidden.ModeConjunctive, hidden.ModeRanked} {
		db := hidden.New(tab, tokenize.New(), 3, hidden.RankByNumericColumn(1), mode)
		want := make([][]int, len(queries))
		for i, q := range queries {
			res, err := db.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = recordIDs(res)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range queries {
					j := (i + g) % len(queries)
					res, err := db.Search(queries[j])
					if err != nil {
						t.Error(err)
						return
					}
					if got := recordIDs(res); !reflect.DeepEqual(got, want[j]) {
						t.Errorf("mode %d, goroutine %d, query %v: got %v, want %v", mode, g, queries[j], got, want[j])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
