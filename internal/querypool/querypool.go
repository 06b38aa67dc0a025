// Package querypool generates the SMARTCRAWL query pool of §3.1. The pool
// is the union of (a) one very specific "naive" query per local record — a
// concatenation of the record's candidate-key attributes, the same queries
// NAIVECRAWL issues — and (b) every closed frequent keyword itemset with
// support ≥ t in the local database, mined with FP-Growth. The closed-set
// restriction implements the paper's dominance pruning: a query q₂ with
// |q₂(D)| = |q₁(D)| whose keywords are a subset of q₁'s is dominated by q₁
// and removed.
package querypool

import (
	"sort"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/freqmine"
	"smartcrawl/internal/index"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// Query is one pool entry. IDs are dense 0..len(pool)-1 and used as
// priority-queue and forward-index keys throughout the crawler.
type Query struct {
	ID       int
	Keywords deepweb.Query
	// IDs is Keywords resolved once against the pool's Dict: sorted
	// interned token IDs. Every hot-path lookup (inverted-index
	// intersection, sample membership) runs on this slice instead of
	// re-hashing the keyword strings.
	IDs []uint32
	// Naive marks per-record specific queries (principle 1 of §3.1).
	// A query can be both naive and frequent; Naive stays true.
	Naive bool
	// SourceRecord is the local record the naive query was generated
	// from, or -1 for mined queries. NaiveCrawl uses it to attribute a
	// query to "its" record.
	SourceRecord int
}

// Config controls pool generation.
type Config struct {
	// MinSupport is the paper's t: mined queries must satisfy
	// |q(D)| ≥ MinSupport. Default 2.
	MinSupport int
	// MaxQueryLen bounds the keyword count of mined queries. Default 3.
	// Naive queries are exempt (they carry the full candidate key).
	MaxQueryLen int
	// KeyColumns are the column indices concatenated into each naive
	// query; nil means all columns.
	KeyColumns []int
	// MaxNaiveKeywords truncates naive queries to the first n distinct
	// keywords (0 = unlimited). Real search boxes reject very long
	// queries; the paper's DBLP setup concatenates title+venue+authors.
	MaxNaiveKeywords int
	// Workers parallelizes the FP-Growth mining stage (one task per
	// frequent item's conditional tree). The generated pool — contents
	// and query IDs — is identical for any worker count. 0 or 1 mines
	// sequentially.
	Workers int

	// Dict, when non-nil, is a pre-built frozen corpus dictionary (for
	// example from an opened corpus cache) and replaces the corpus
	// vocabulary scan. It must cover every token of the local records —
	// BuildDict over the sorted corpus vocabulary does by construction.
	Dict *tokenize.Dict

	// SampleSize, when > 0 and smaller than the corpus, switches mining
	// to the out-of-core mode: FP-Growth runs over a deterministic
	// reservoir sample of SampleSize records (seeded by SampleSeed) at a
	// proportionally scaled support threshold, and every candidate's
	// support is then recounted exactly through Index (or Count), keeping
	// only queries with true |q(D)| ≥ MinSupport. Peak mining memory
	// becomes O(SampleSize), independent of the corpus. Sampling bounds
	// recall, not precision: every query kept has its exact corpus
	// support and is closed in the full pool, but an itemset frequent in
	// D and absent from the sample is missed. The 20% threshold slack
	// does not make that rare when the scaled threshold floors at 1 — at
	// t = 2 with 2 000 of 10 000 records (the dblp-mapped benchmark) the
	// sampled pool misses 44.7% of the full pool's closed queries
	// (DESIGN.md, "Out-of-core corpus").
	SampleSize int
	// SampleSeed seeds the reservoir sample; the pool is a pure function
	// of (corpus, Config), so equal seeds give byte-identical pools.
	SampleSeed uint64
	// Index is the corpus's inverted index — typically the corpus cache's
	// CompressedInvertedIDs, which the crawler hands over whenever its
	// Env has one. When set, the exact recount of sampled mining resolves
	// every candidate in one index.CountBatch pass.
	Index index.PostingSource
	// Count is the recount fallback for a caller that has a per-query
	// counter but no Index: it returns a candidate's exact corpus support
	// |q(D)| given its sorted token IDs, one candidate at a time. Index
	// takes precedence. With neither, sampled mining keeps the sample
	// supports as-is (scaled threshold, approximate).
	Count func(q []uint32) int
}

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MaxQueryLen <= 0 {
		c.MaxQueryLen = 3
	}
	return c
}

// Pool is an immutable generated query pool. Dict is the frozen token
// dictionary built from the local corpus vocabulary during generation;
// every Query.IDs slice is resolved under it, and the crawler builds its
// interned indexes over the same dictionary.
type Pool struct {
	Queries []*Query
	Dict    *tokenize.Dict
	byKey   map[string]int
}

// Len returns the number of pool queries.
func (p *Pool) Len() int { return len(p.Queries) }

// Find returns the pool query with the given normalized keywords, or nil.
func (p *Pool) Find(q deepweb.Query) *Query {
	if i, ok := p.byKey[q.Key()]; ok {
		return p.Queries[i]
	}
	return nil
}

// NaiveQuery builds the specific query NAIVECRAWL would issue for record r:
// the distinct keywords of its key columns, normalized. Returns nil if the
// record has no indexable tokens.
func NaiveQuery(r *relational.Record, tk *tokenize.Tokenizer, cfg Config) deepweb.Query {
	text := ""
	if cfg.KeyColumns == nil {
		text = r.Document()
	} else {
		vals := make([]string, 0, len(cfg.KeyColumns))
		for _, c := range cfg.KeyColumns {
			vals = append(vals, r.Value(c))
		}
		text = tokenize.Document(vals)
	}
	words := tk.Distinct(text)
	if cfg.MaxNaiveKeywords > 0 && len(words) > cfg.MaxNaiveKeywords {
		words = words[:cfg.MaxNaiveKeywords]
	}
	if len(words) == 0 {
		return nil
	}
	sort.Strings(words)
	// Dedup after sort (Distinct already deduped, but truncation keeps
	// the invariant explicit).
	out := words[:1]
	for _, w := range words[1:] {
		if w != out[len(out)-1] {
			out = append(out, w)
		}
	}
	return deepweb.Query(out)
}

// Generate builds the pool for local database D (§3.1): naive queries for
// every record plus closed frequent itemsets with support ≥ t.
func Generate(local *relational.Table, tk *tokenize.Tokenizer, cfg Config) *Pool {
	cfg = cfg.withDefaults()

	// The corpus scan comes first so the frozen dictionary exists before
	// any query is added: every pool keyword — naive queries draw theirs
	// from record documents, mined queries from the transaction items —
	// is in the vocabulary, so resolution below can never fail. Token IDs
	// follow sorted token order (index.ScanDict), so generation is
	// deterministic and mined itemset items ARE dictionary IDs. A
	// pre-built dictionary (corpus cache) stores exactly this dictionary
	// and skips the scan.
	dict := cfg.Dict
	if dict == nil {
		dict = index.ScanDict(local.Records, tk)
	}

	// Sampled mining: transactions come from a reservoir sample and the
	// support threshold scales with the sampling fraction (with slack, so
	// borderline-frequent itemsets still surface for the exact recount).
	mineRecs := local.Records
	minSupport := cfg.MinSupport
	sampled := cfg.SampleSize > 0 && cfg.SampleSize < len(local.Records)
	if sampled {
		mineRecs = reservoirSample(local.Records, cfg.SampleSize, cfg.SampleSeed)
		frac := float64(cfg.SampleSize) / float64(len(local.Records))
		minSupport = int(0.8 * float64(cfg.MinSupport) * frac)
		if minSupport < 1 {
			minSupport = 1
		}
	}
	txs := transactionsUnder(dict, mineRecs, tk)
	p := &Pool{Dict: dict, byKey: make(map[string]int)}

	add := func(q deepweb.Query, naive bool, src int) {
		if len(q) == 0 {
			return
		}
		key := q.Key()
		if i, ok := p.byKey[key]; ok {
			if naive && !p.Queries[i].Naive {
				p.Queries[i].Naive = true
				p.Queries[i].SourceRecord = src
			}
			return
		}
		ids, ok := dict.Resolve([]string(q))
		if !ok {
			// Unreachable for generated queries (see above); skipping is
			// the safe degradation for a keyword outside the corpus.
			return
		}
		p.byKey[key] = len(p.Queries)
		p.Queries = append(p.Queries, &Query{
			ID:           len(p.Queries),
			Keywords:     q,
			IDs:          ids,
			Naive:        naive,
			SourceRecord: src,
		})
	}

	// Principle 1: one specific query per record (Q_naive).
	for _, r := range local.Records {
		add(NaiveQuery(r, tk, cfg), true, r.ID)
	}

	// Principle 2: frequent queries with |q(D)| ≥ t, dominance-pruned.
	mined := freqmine.MineFPGrowth(txs, freqmine.Config{
		MinSupport: minSupport,
		MaxLen:     cfg.MaxQueryLen,
		Workers:    cfg.Workers,
	})
	if sampled && (cfg.Index != nil || cfg.Count != nil) {
		// Exact recount against the full corpus index: sample supports
		// become true |q(D)| values, and candidates below the real
		// threshold drop out. Closedness (dominance pruning) below then
		// operates on exact supports, as the paper defines it.
		mined = recount(mined, cfg)
	}
	for _, s := range freqmine.FilterClosed(mined) {
		words := make([]string, len(s.Items))
		for i, it := range s.Items {
			words[i] = dict.Word(uint32(it))
		}
		sort.Strings(words)
		add(deepweb.Query(words), false, -1)
	}
	return p
}

// transactionsUnder maps records to integer-item transactions under an
// existing frozen dictionary. Tokens outside the dictionary are dropped
// (they can never form a pool query; see tokenize.Dict).
func transactionsUnder(dict *tokenize.Dict, recs []*relational.Record, tk *tokenize.Tokenizer) [][]int {
	txs := make([][]int, len(recs))
	for i, r := range recs {
		toks := r.Tokens(tk)
		t := make([]int, 0, len(toks))
		for _, w := range toks {
			if id, ok := dict.ID(w); ok {
				t = append(t, int(id))
			}
		}
		txs[i] = t
	}
	return txs
}

// reservoirSample draws a uniform m-record sample in one pass (Vitter's
// algorithm R) with a seed-determined RNG; the result is a pure function
// of (records, m, seed), which keeps sampled pool generation inside the
// determinism oracle.
func reservoirSample(recs []*relational.Record, m int, seed uint64) []*relational.Record {
	rng := stats.NewRNG(seed)
	out := make([]*relational.Record, m)
	copy(out, recs[:m])
	for i := m; i < len(recs); i++ {
		if j := rng.Intn(i + 1); j < m {
			out[j] = recs[i]
		}
	}
	return out
}

// recount replaces every sampled candidate's support with its exact
// corpus support and drops the candidates below MinSupport, keeping the
// mined order. Itemset items are sorted dictionary IDs, so each candidate
// is already the sorted token-ID query the index resolves.
func recount(mined []freqmine.Itemset, cfg Config) []freqmine.Itemset {
	n := 0
	for _, s := range mined {
		n += len(s.Items)
	}
	flat := make([]uint32, 0, n)
	qs := make([][]uint32, len(mined))
	for i, s := range mined {
		lo := len(flat)
		for _, it := range s.Items {
			flat = append(flat, uint32(it))
		}
		qs[i] = flat[lo:]
	}
	var sup []int
	if cfg.Index != nil {
		sup = index.CountBatch(cfg.Index, qs, cfg.Workers)
	} else {
		sup = make([]int, len(qs))
		for i, q := range qs {
			sup[i] = cfg.Count(q)
		}
	}
	exact := mined[:0]
	for i, s := range mined {
		if sup[i] >= cfg.MinSupport {
			s.Support = sup[i]
			exact = append(exact, s)
		}
	}
	return exact
}
