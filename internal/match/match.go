// Package match is the entity-resolution layer the paper treats as a black
// box (§2) and extends in §6.1: deciding whether a local record and a
// hidden record refer to the same real-world entity. It provides an exact
// matcher (normalized-document equality, Assumption 3), a token-Jaccard
// matcher with a similarity threshold (the §6.1 fuzzy extension), several
// auxiliary similarity functions, and a prefix-filtered similarity join
// used by the crawl loop to compute q(D)_cover from a query result
// efficiently.
package match

import (
	"math"
	"strings"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Matcher decides whether a local and a hidden record refer to the same
// entity. Implementations must be symmetric in spirit but are always called
// as (local, hidden).
type Matcher interface {
	Match(d, h *relational.Record) bool
}

// Exact matches records whose normalized match documents are identical —
// the paper's Assumption 3 (no fuzzy matching). The match document is the
// full record by default, or a projection onto key columns when the two
// databases' schemas differ (e.g. the hidden side carries the enrichment
// attributes the local side lacks).
type Exact struct {
	tk *tokenize.Tokenizer
	// DCols / HCols select the local / hidden columns compared; nil
	// means all columns.
	DCols, HCols []int
}

// NewExact returns an exact matcher comparing entire documents.
func NewExact(tk *tokenize.Tokenizer) *Exact { return &Exact{tk: tk} }

// NewExactOn returns an exact matcher comparing the projection of local
// records onto dCols with the projection of hidden records onto hCols
// (nil = all columns).
func NewExactOn(tk *tokenize.Tokenizer, dCols, hCols []int) *Exact {
	return &Exact{tk: tk, DCols: dCols, HCols: hCols}
}

// Match reports whether the two records' normalized match documents are
// equal.
func (m *Exact) Match(d, h *relational.Record) bool {
	return KeyOn(d, m.tk, m.DCols) == KeyOn(h, m.tk, m.HCols)
}

// KeyOn returns the normalized-document key of a record restricted to the
// given columns (nil = all): sorted distinct tokens joined by spaces. Two
// records with equal keys are exact matches.
func KeyOn(r *relational.Record, tk *tokenize.Tokenizer, cols []int) string {
	return strings.Join(tk.NormalizeQuery(projDoc(r, cols)), " ")
}

func projDoc(r *relational.Record, cols []int) string {
	if cols == nil {
		return r.Document()
	}
	vals := make([]string, len(cols))
	for i, c := range cols {
		vals[i] = r.Value(c)
	}
	return tokenize.Document(vals)
}

// projTokens returns the distinct tokens of the record's match document.
// With nil cols it reuses the record's cached token set.
func projTokens(r *relational.Record, tk *tokenize.Tokenizer, cols []int) []string {
	if cols == nil {
		return r.Tokens(tk)
	}
	return tk.Distinct(projDoc(r, cols))
}

// Jaccard matches records whose token-set Jaccard similarity meets a
// threshold — the §6.1 similarity-join predicate (paper example: 0.9).
// Like Exact, it can be restricted to key columns on either side.
type Jaccard struct {
	tk        *tokenize.Tokenizer
	Threshold float64
	// DCols / HCols select the local / hidden columns compared; nil
	// means all columns.
	DCols, HCols []int
}

// NewJaccard returns a Jaccard matcher over entire documents with the
// given threshold in (0, 1].
func NewJaccard(tk *tokenize.Tokenizer, threshold float64) *Jaccard {
	return NewJaccardOn(tk, threshold, nil, nil)
}

// NewJaccardOn returns a Jaccard matcher comparing column projections
// (nil = all columns).
func NewJaccardOn(tk *tokenize.Tokenizer, threshold float64, dCols, hCols []int) *Jaccard {
	if threshold <= 0 || threshold > 1 {
		panic("match: Jaccard threshold must be in (0, 1]")
	}
	return &Jaccard{tk: tk, Threshold: threshold, DCols: dCols, HCols: hCols}
}

// Match reports whether Jaccard(d, h) >= Threshold over match documents.
func (m *Jaccard) Match(d, h *relational.Record) bool {
	return JaccardSim(projTokens(d, m.tk, m.DCols), projTokens(h, m.tk, m.HCols)) >= m.Threshold
}

// JaccardSim computes |a∩b| / |a∪b| over distinct-token slices.
func JaccardSim(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := overlap(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// DiceSim computes 2|a∩b| / (|a|+|b|).
func DiceSim(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return 2 * float64(overlap(a, b)) / float64(len(a)+len(b))
}

// OverlapSim computes |a∩b| / min(|a|, |b|).
func OverlapSim(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	return float64(overlap(a, b)) / float64(m)
}

// CosineSim computes |a∩b| / sqrt(|a|·|b|) over token sets.
func CosineSim(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(overlap(a, b)) / math.Sqrt(float64(len(a)*len(b)))
}

// overlap counts distinct common tokens between two distinct-token slices.
func overlap(a, b []string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[string]struct{}, len(a))
	for _, w := range a {
		set[w] = struct{}{}
	}
	n := 0
	for _, w := range b {
		if _, ok := set[w]; ok {
			n++
		}
	}
	return n
}

// Levenshtein returns the edit distance between two strings (unit costs).
// Provided for candidate-key matching in the examples; O(len(a)·len(b)).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
