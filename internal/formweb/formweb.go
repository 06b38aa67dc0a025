// Package formweb implements the form-like search interface the paper
// defers to future work (§9): instead of free keywords, the hidden
// database is queried through a form of categorical attribute filters
// (city = "Phoenix" AND category = "Pizza"), returning the top-k matching
// records — the interface family of Raghavan & Garcia-Molina [36],
// Madhavan et al. [31], and Jin et al. [28]. It provides the simulator, a
// local-database-aware pool of form queries (the SMARTCRAWL transfer:
// enumerate the filter combinations that occur in D, most frequent first),
// and a greedy budgeted crawler with the same §4.2-style pruning of
// records a solid query failed to return.
package formweb

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"smartcrawl/internal/freqmine"
	"smartcrawl/internal/index"
	"smartcrawl/internal/lazyheap"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Filter is one form predicate: column col equals value (case-insensitive,
// whitespace-trimmed).
type Filter struct {
	Col   int
	Value string
}

// Query is a conjunction of filters over distinct columns, sorted by
// column index.
type Query []Filter

// Key returns a canonical map key.
func (q Query) Key() string {
	parts := make([]string, len(q))
	for i, f := range q {
		parts[i] = fmt.Sprintf("%d=%s", f.Col, f.Value)
	}
	return strings.Join(parts, "&")
}

// String renders the query for humans.
func (q Query) String() string { return q.Key() }

// Normalize canonicalizes filter values and ordering. It returns an error
// on duplicate columns or empty values.
func Normalize(q Query) (Query, error) {
	out := make(Query, len(q))
	for i, f := range q {
		v := strings.ToLower(strings.TrimSpace(f.Value))
		if v == "" {
			return nil, errors.New("formweb: empty filter value")
		}
		out[i] = Filter{Col: f.Col, Value: v}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Col < out[b].Col })
	for i := 1; i < len(out); i++ {
		if out[i].Col == out[i-1].Col {
			return nil, fmt.Errorf("formweb: duplicate column %d", out[i].Col)
		}
	}
	return out, nil
}

// Searcher is the restricted form interface: filters in, at most k records
// out.
type Searcher interface {
	SearchForm(q Query) ([]*relational.Record, error)
	K() int
	// Columns lists the filterable column indices.
	Columns() []int
}

// Database simulates a hidden database behind a form interface.
type Database struct {
	table *relational.Table
	cols  []int
	k     int
	score []float64
	// postings maps "col=value" to sorted record IDs.
	postings map[string][]int
}

// RankFunc mirrors hidden.RankFunc (static relevance, higher first).
type RankFunc func(r *relational.Record) float64

// New builds a form database over table; cols are the filterable columns.
func New(table *relational.Table, cols []int, k int, rank RankFunc) *Database {
	if k <= 0 {
		panic("formweb: k must be positive")
	}
	if len(cols) == 0 {
		panic("formweb: at least one filterable column required")
	}
	db := &Database{
		table:    table,
		cols:     append([]int(nil), cols...),
		k:        k,
		score:    make([]float64, table.Len()),
		postings: make(map[string][]int),
	}
	for _, r := range table.Records {
		db.score[r.ID] = rank(r)
		for _, c := range cols {
			key := postingKey(c, r.Value(c))
			db.postings[key] = append(db.postings[key], r.ID)
		}
	}
	for key := range db.postings {
		sort.Ints(db.postings[key])
	}
	return db
}

func postingKey(col int, value string) string {
	return fmt.Sprintf("%d=%s", col, strings.ToLower(strings.TrimSpace(value)))
}

// K implements Searcher.
func (db *Database) K() int { return db.k }

// Columns implements Searcher.
func (db *Database) Columns() []int { return append([]int(nil), db.cols...) }

// SearchForm implements Searcher: deterministic top-k of the records
// matching every filter, ranked by score (ties by ID).
func (db *Database) SearchForm(q Query) ([]*relational.Record, error) {
	q, err := Normalize(q)
	if err != nil {
		return nil, err
	}
	if len(q) == 0 {
		return nil, errors.New("formweb: empty query")
	}
	filterable := make(map[int]bool, len(db.cols))
	for _, c := range db.cols {
		filterable[c] = true
	}
	var ids []int
	for i, f := range q {
		if !filterable[f.Col] {
			return nil, fmt.Errorf("formweb: column %d is not filterable", f.Col)
		}
		p := db.postings[postingKey(f.Col, f.Value)]
		if len(p) == 0 {
			return nil, nil
		}
		if i == 0 {
			ids = p
			continue
		}
		ids = intersectSorted(ids, p)
		if len(ids) == 0 {
			return nil, nil
		}
	}
	if len(ids) > db.k {
		cp := make([]int, len(ids))
		copy(cp, ids)
		sort.Slice(cp, func(a, b int) bool {
			if db.score[cp[a]] != db.score[cp[b]] {
				return db.score[cp[a]] > db.score[cp[b]]
			}
			return cp[a] < cp[b]
		})
		ids = cp[:db.k]
	}
	out := make([]*relational.Record, len(ids))
	for i, id := range ids {
		out[i] = db.table.Records[id]
	}
	return out, nil
}

// TrueFrequency is the oracle |q(H)| (evaluation only).
func (db *Database) TrueFrequency(q Query) int {
	q, err := Normalize(q)
	if err != nil || len(q) == 0 {
		return 0
	}
	var ids []int
	for i, f := range q {
		p := db.postings[postingKey(f.Col, f.Value)]
		if i == 0 {
			ids = p
		} else {
			ids = intersectSorted(ids, p)
		}
		if len(ids) == 0 {
			return 0
		}
	}
	return len(ids)
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// GeneratePool builds the local-database-aware form-query pool: every
// combination of filter values with support ≥ minSupport in the local
// table (closed combinations only, mirroring §3.1's dominance pruning),
// over the columns shared by both schemas. localCols[i] is the local
// column aligned with the searcher's hiddenCols[i].
func GeneratePool(local *relational.Table, localCols, hiddenCols []int, minSupport int) ([]Query, error) {
	if len(localCols) != len(hiddenCols) || len(localCols) == 0 {
		return nil, errors.New("formweb: localCols and hiddenCols must align and be non-empty")
	}
	if minSupport < 1 {
		minSupport = 1
	}
	// Items are (aligned column position, value) pairs.
	type item struct {
		pos   int
		value string
	}
	itemID := make(map[item]int)
	items := make([]item, 0)
	txs := make([][]int, local.Len())
	for i, r := range local.Records {
		tx := make([]int, 0, len(localCols))
		for pos, lc := range localCols {
			v := strings.ToLower(strings.TrimSpace(r.Value(lc)))
			if v == "" {
				continue
			}
			it := item{pos: pos, value: v}
			id, ok := itemID[it]
			if !ok {
				id = len(items)
				itemID[it] = id
				items = append(items, it)
			}
			tx = append(tx, id)
		}
		txs[i] = tx
	}
	mined := freqmine.MineFPGrowth(txs, freqmine.Config{
		MinSupport: minSupport,
		MaxLen:     len(localCols),
	})
	var pool []Query
	for _, s := range freqmine.FilterClosed(mined) {
		q := make(Query, 0, len(s.Items))
		ok := true
		seenCols := map[int]bool{}
		for _, id := range s.Items {
			it := items[id]
			if seenCols[it.pos] {
				ok = false // two values of the same column can't co-occur... defensive
				break
			}
			seenCols[it.pos] = true
			q = append(q, Filter{Col: hiddenCols[it.pos], Value: it.value})
		}
		if !ok {
			continue
		}
		nq, err := Normalize(q)
		if err != nil {
			continue
		}
		pool = append(pool, nq)
	}
	// Deterministic order: by descending support is already FP-Growth's
	// order; re-sort by key for stability after the closed filter.
	sort.Slice(pool, func(a, b int) bool { return pool[a].Key() < pool[b].Key() })
	return pool, nil
}

// CrawlResult is the outcome of a form crawl.
type CrawlResult struct {
	Covered       []bool
	CoveredCount  int
	QueriesIssued int
	Crawled       map[int]*relational.Record
}

// Crawl runs the budgeted local-database-aware form crawl: greedily issue
// the pool query matching the most uncovered local records (frequency
// selection with lazy updates); when a query returns fewer than k records
// it was complete, so its unmatched local records cannot be covered by any
// form query implied by theirs — prune them, mirroring §4.2.
func Crawl(local *relational.Table, s Searcher, pool []Query, tk *tokenize.Tokenizer, m match.Matcher, localCols, hiddenCols []int, budget int) (*CrawlResult, error) {
	if len(pool) == 0 {
		return nil, errors.New("formweb: empty pool")
	}
	joiner := match.NewJoiner(local.Records, tk, m)

	// q(D) per pool query: local records whose aligned values satisfy
	// every filter.
	colOfHidden := make(map[int]int, len(hiddenCols))
	for i, hc := range hiddenCols {
		colOfHidden[hc] = localCols[i]
	}
	valOf := func(r *relational.Record, hiddenCol int) string {
		return strings.ToLower(strings.TrimSpace(r.Value(colOfHidden[hiddenCol])))
	}
	qD := make([][]int, len(pool))
	fwd := index.NewForwardDense(local.Len())
	freq := make([]int, len(pool))
	for qi, q := range pool {
		for _, r := range local.Records {
			ok := true
			for _, f := range q {
				if valOf(r, f.Col) != f.Value {
					ok = false
					break
				}
			}
			if ok {
				qD[qi] = append(qD[qi], r.ID)
				fwd.Add(r.ID, uint32(qi))
			}
		}
		freq[qi] = len(qD[qi])
	}

	heap := lazyheap.New()
	issued := make([]bool, len(pool))
	for qi := range pool {
		if freq[qi] > 0 {
			heap.Push(qi, float64(freq[qi]))
		}
	}

	res := &CrawlResult{
		Covered: make([]bool, local.Len()),
		Crawled: make(map[int]*relational.Record),
	}
	considered := make([]bool, local.Len())
	for i := range considered {
		considered[i] = true
	}
	remaining := local.Len()
	remove := func(d int) {
		if !considered[d] {
			return
		}
		considered[d] = false
		remaining--
		for _, qi := range fwd.Remove(d) {
			if !issued[qi] {
				freq[qi]--
				heap.Invalidate(int(qi))
			}
		}
	}
	rescore := func(qi int) (float64, bool) {
		if issued[qi] || freq[qi] <= 0 {
			return 0, false
		}
		return float64(freq[qi]), true
	}

	for res.QueriesIssued < budget && remaining > 0 {
		qi, _, ok := heap.Pop(rescore)
		if !ok {
			break
		}
		issued[qi] = true
		recs, err := s.SearchForm(pool[qi])
		if err != nil {
			return nil, fmt.Errorf("formweb: issuing %v: %w", pool[qi], err)
		}
		res.QueriesIssued++
		for _, h := range recs {
			// A record an earlier query returned already covered every
			// local record it matches, and coverage never shrinks, so it
			// is not matched again.
			if _, dup := res.Crawled[h.ID]; dup {
				continue
			}
			res.Crawled[h.ID] = h
			for _, d := range joiner.Matches(h) {
				if !res.Covered[d] {
					res.Covered[d] = true
					res.CoveredCount++
					remove(d)
				}
			}
		}
		if len(recs) < s.K() {
			for _, d := range qD[qi] {
				remove(d)
			}
		}
	}
	return res, nil
}
