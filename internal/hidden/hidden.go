// Package hidden implements the hidden-database simulator: a relational
// table behind a top-k keyword-search interface with an unknown,
// deterministic ranking function (§2, Definition 2). It reproduces both
// interface flavors the paper evaluates:
//
//   - ModeConjunctive: only records containing ALL query keywords are
//     returned (IMDb, ACM DL, GoodReads, SoundCloud — and the paper's
//     simulated DBLP engine, which ranks by year);
//   - ModeRanked: records matching ANY keyword may be returned, but records
//     containing all keywords rank on top (Yelp's behaviour, §2 and §7.3).
//
// The package also exposes oracle accessors (true |q(H)|, the full record
// set) used only by IdealCrawl and by experiment instrumentation — never by
// the practical crawlers, which see the database exclusively through
// deepweb.Searcher.
package hidden

import (
	"cmp"
	"fmt"
	"slices"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/index"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Mode selects the search semantics.
type Mode int

const (
	// ModeConjunctive returns only records containing every keyword.
	ModeConjunctive Mode = iota
	// ModeRanked returns records containing any keyword; all-keyword
	// matches rank on top, the rest follow by static relevance score.
	ModeRanked
)

// RankFunc assigns each record a static relevance score; higher scores rank
// earlier. The function is "unknown" to crawlers — they only ever see its
// effect through truncated result lists.
type RankFunc func(r *relational.Record) float64

// RankByNumericColumn ranks by the numeric value of column col, descending
// (the paper's simulated engine ranks publications by year). Unparsable
// values rank last.
func RankByNumericColumn(col int) RankFunc {
	return func(r *relational.Record) float64 {
		var v float64
		if _, err := fmt.Sscanf(r.Value(col), "%g", &v); err != nil {
			return negInf
		}
		return v
	}
}

// RankByHash ranks by a deterministic pseudo-random hash of the record ID —
// a stand-in for opaque relevance scores.
func RankByHash(seed uint64) RankFunc {
	return func(r *relational.Record) float64 {
		z := uint64(r.ID)*0x9e3779b97f4a7c15 + seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64(z^(z>>31)) / (1 << 64)
	}
}

// RankByDocLength ranks shorter documents first (a crude "exactness" prior
// some engines exhibit).
func RankByDocLength() RankFunc {
	return func(r *relational.Record) float64 {
		return -float64(len(r.Document()))
	}
}

const negInf = -1.7976931348623157e308

// Database is a simulated hidden database: the table's own frozen
// vocabulary, an inverted index over it, and the static ranking
// precomputed as one total order.
type Database struct {
	table *relational.Table
	dict  *tokenize.Dict
	inv   *index.InvertedIDs
	order []uint32 // record IDs best first: score desc, then ID asc
	rank  []uint32 // record ID → its position in order
	k     int
	mode  Mode
}

// New builds a hidden database over table with the given top-k limit,
// ranking function, and search mode. Record IDs must be dense 0..n-1 (as
// produced by relational.Table.Append). A NaN score ranks below every
// other score.
func New(table *relational.Table, tk *tokenize.Tokenizer, k int, rank RankFunc, mode Mode) *Database {
	if k <= 0 {
		panic("hidden: k must be positive")
	}
	n := len(table.Records)
	score := make([]float64, n)
	for _, r := range table.Records {
		if r.ID < 0 || r.ID >= n {
			panic("hidden: record IDs must be dense")
		}
		score[r.ID] = rank(r)
	}
	dict := index.ScanDict(table.Records, tk)
	db := &Database{
		table: table,
		dict:  dict,
		inv:   index.BuildInvertedIDs(table.Records, tk, dict, 1),
		order: make([]uint32, n),
		rank:  make([]uint32, n),
		k:     k,
		mode:  mode,
	}
	for id := range db.order {
		db.order[id] = uint32(id)
	}
	slices.SortFunc(db.order, func(a, b uint32) int {
		if c := cmp.Compare(score[b], score[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for pos, id := range db.order {
		db.rank[id] = uint32(pos)
	}
	return db
}

// K returns the top-k limit of the search interface.
func (db *Database) K() int { return db.k }

// Search implements deepweb.Searcher. It is deterministic: ranking ties are
// broken by record ID. It keeps no state between calls, so concurrent
// searches are safe.
func (db *Database) Search(q deepweb.Query) ([]*relational.Record, error) {
	if err := deepweb.Validate(q); err != nil {
		return nil, err
	}
	switch db.mode {
	case ModeConjunctive:
		return db.searchConjunctive(q), nil
	case ModeRanked:
		return db.searchRanked(q), nil
	default:
		return nil, fmt.Errorf("hidden: unknown mode %d", db.mode)
	}
}

// searchConjunctive returns every match in ascending record ID when there
// are at most k of them, and otherwise the k best by rank.
func (db *Database) searchConjunctive(q deepweb.Query) []*relational.Record {
	ids := db.fullMatches(q)
	if len(ids) <= db.k {
		return db.materialize(ids)
	}
	keys := make([]uint64, len(ids))
	for i, id := range ids {
		keys[i] = uint64(db.rank[id])
	}
	return db.topK(keys)
}

// searchRanked orders candidates the way the paper describes Yelp behaving
// (§2): records containing ALL query keywords rank on top; everything else
// matching ANY keyword follows by the static relevance score alone.
// Partial matches are NOT tiered by how many keywords they share — real
// engines pad the tail with globally popular results, so the padding
// repeats across queries instead of surfacing fresh entities per query.
//
// The posting lists are merged in record-ID order; each union member's
// sort key is its rank position, pushed past every possible full match
// (by the table size) unless all len(q) lists hold it. A keyword absent
// from H contributes no list, so no record is then a full match.
func (db *Database) searchRanked(q deepweb.Query) []*relational.Record {
	lists := make([][]uint32, 0, len(q))
	total := 0
	for _, w := range q {
		if id, ok := db.dict.ID(w); ok {
			p := db.inv.Postings(id)
			lists = append(lists, p)
			total += len(p)
		}
	}
	partial := uint64(len(db.order))
	keys := make([]uint64, 0, total)
	heads := make([]int, len(lists))
	for {
		next, found := uint32(0), false
		for i, p := range lists {
			if h := heads[i]; h < len(p) && (!found || p[h] < next) {
				next, found = p[h], true
			}
		}
		if !found {
			break
		}
		hits := 0
		for i, p := range lists {
			if h := heads[i]; h < len(p) && p[h] == next {
				heads[i]++
				hits++
			}
		}
		key := uint64(db.rank[next])
		if hits < len(q) {
			key += partial
		}
		keys = append(keys, key)
	}
	return db.topK(keys)
}

// topK sorts rank keys ascending, cuts them at k and returns their
// records. A key at or past the table size is a partial match's rank
// position offset by the table size.
func (db *Database) topK(keys []uint64) []*relational.Record {
	if len(keys) == 0 {
		return nil
	}
	slices.Sort(keys)
	if len(keys) > db.k {
		keys = keys[:db.k]
	}
	n := uint64(len(db.order))
	out := make([]*relational.Record, len(keys))
	for i, key := range keys {
		out[i] = db.table.Records[db.order[key%n]]
	}
	return out
}

// fullMatches returns the ascending IDs of the records containing every
// keyword of q; a keyword outside the table's vocabulary matches nothing.
func (db *Database) fullMatches(q deepweb.Query) []uint32 {
	ids, ok := db.dict.Resolve(q)
	if !ok {
		return nil
	}
	return db.inv.Lookup(ids)
}

func (db *Database) materialize(ids []uint32) []*relational.Record {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*relational.Record, len(ids))
	for i, id := range ids {
		out[i] = db.table.Records[id]
	}
	return out
}

// --- Oracle accessors (experiment instrumentation and IdealCrawl only) ---

// Size returns |H|. Real hidden databases do not reveal this.
func (db *Database) Size() int { return db.table.Len() }

// TrueFrequency returns |q(H)| — the number of hidden records satisfying q
// under conjunctive semantics, regardless of mode. Oracle only.
func (db *Database) TrueFrequency(q deepweb.Query) int {
	ids, ok := db.dict.Resolve(q)
	if !ok {
		return 0
	}
	return db.inv.Count(ids)
}

// IsOverflowing reports whether q is an overflowing query (|q(H)| > k,
// Definition 2). Oracle only.
func (db *Database) IsOverflowing(q deepweb.Query) bool {
	return db.TrueFrequency(q) > db.k
}

// FullMatch returns all records satisfying q conjunctively, ignoring the
// top-k truncation. Oracle only (used to verify estimator math in tests).
func (db *Database) FullMatch(q deepweb.Query) []*relational.Record {
	return db.materialize(db.fullMatches(q))
}
