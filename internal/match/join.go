package match

import (
	"math"
	"sort"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Joiner answers "which local records does this hidden record match?" — the
// per-iteration similarity join of §6.1 that turns a query result q(H)_k
// into the covered set q(D)_cover. It is built once over the local database
// and probed once per sample record at crawl setup and once per newly
// crawled hidden record (a record an earlier query returned already
// covered all it matches, so the crawl loop skips it), so probe cost
// dominates; three strategies are chosen by matcher type:
//
//   - Exact: hash join on the normalized-document key, O(1) per probe;
//   - Jaccard: prefix-filtered token join (the classic All-Pairs filter:
//     two sets with Jaccard ≥ τ must share a token within each other's
//     first |x| − ⌈τ·|x|⌉ + 1 tokens under a global token order), then
//     threshold verification;
//   - any other Matcher: full scan (correct for arbitrary black boxes).
//
// Probes reuse internal scratch (dedup stamps, the prefix sort buffer), so
// a Joiner must not be probed from multiple goroutines concurrently; build
// one Joiner per goroutine instead.
type Joiner struct {
	recs    []*relational.Record
	tk      *tokenize.Tokenizer
	matcher Matcher

	// exact join state
	exactKeys map[string][]int

	// jaccard prefix-filter state
	threshold float64
	order     map[string]int // global token order: rarer tokens first
	prefixInv map[string][]int

	// column projections taken from the matcher (nil = all columns)
	dCols, hCols []int

	// verify holds BlockedAnd verification predicates applied to every
	// index candidate.
	verify []Matcher

	// probe-side scratch, reused across sequential probes: candidate dedup
	// within one probe (probeSeen), across one batch (batchSeen — separate
	// because CoveredBy nests Matches), and the prefix sort buffer.
	probeSeen denseSeen
	batchSeen denseSeen
	sortBuf   []string
}

// denseSeen is a generation-stamped membership set over dense indices:
// reset is O(1), add is an array store — replacing the map[int]struct{}
// the probe paths used to allocate per call.
type denseSeen struct {
	stamp []int
	gen   int
}

func (s *denseSeen) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]int, n)
		s.gen = 0
	}
	s.gen++
}

// add inserts i and reports whether it was newly added.
func (s *denseSeen) add(i int) bool {
	if s.stamp[i] == s.gen {
		return false
	}
	s.stamp[i] = s.gen
	return true
}

// NewJoiner builds a join index over the local records for the given
// matcher. BlockedAnd matchers are indexed by their Block component, with
// Verify predicates applied to every candidate.
func NewJoiner(recs []*relational.Record, tk *tokenize.Tokenizer, m Matcher) *Joiner {
	j := &Joiner{recs: recs, tk: tk, matcher: m}
	if ba, ok := m.(*BlockedAnd); ok {
		j.verify = ba.Verify
		m = ba.Block
	}
	switch mm := m.(type) {
	case *Exact:
		j.dCols, j.hCols = mm.DCols, mm.HCols
		j.exactKeys = make(map[string][]int, len(recs))
		for i, r := range recs {
			k := KeyOn(r, tk, j.dCols)
			j.exactKeys[k] = append(j.exactKeys[k], i)
		}
	case *Jaccard:
		j.dCols, j.hCols = mm.DCols, mm.HCols
		j.threshold = mm.Threshold
		j.buildPrefixIndex()
	}
	return j
}

func (j *Joiner) buildPrefixIndex() {
	// Global order: ascending document frequency, ties by token text.
	df := make(map[string]int)
	for _, r := range j.recs {
		for _, w := range projTokens(r, j.tk, j.dCols) {
			df[w]++
		}
	}
	tokens := make([]string, 0, len(df))
	for w := range df {
		tokens = append(tokens, w)
	}
	sort.Slice(tokens, func(a, b int) bool {
		if df[tokens[a]] != df[tokens[b]] {
			return df[tokens[a]] < df[tokens[b]]
		}
		return tokens[a] < tokens[b]
	})
	j.order = make(map[string]int, len(tokens))
	for i, w := range tokens {
		j.order[w] = i
	}
	j.prefixInv = make(map[string][]int)
	for i, r := range j.recs {
		for _, w := range j.prefixTokens(projTokens(r, j.tk, j.dCols)) {
			j.prefixInv[w] = append(j.prefixInv[w], i)
		}
	}
}

// prefixTokens returns the first |x| − ⌈τ·|x|⌉ + 1 tokens of x under the
// global order. Tokens unknown to the order (probe-side novelties) sort
// last among themselves by text. The result aliases a reused buffer and
// is valid only until the next call.
func (j *Joiner) prefixTokens(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	sorted := append(j.sortBuf[:0], toks...)
	j.sortBuf = sorted
	sort.Slice(sorted, func(a, b int) bool {
		oa, oka := j.order[sorted[a]]
		ob, okb := j.order[sorted[b]]
		switch {
		case oka && okb:
			return oa < ob
		case oka:
			return true
		case okb:
			return false
		default:
			return sorted[a] < sorted[b]
		}
	})
	p := len(sorted) - int(math.Ceil(j.threshold*float64(len(sorted)))) + 1
	if p > len(sorted) {
		p = len(sorted)
	}
	if p < 1 {
		p = 1
	}
	return sorted[:p]
}

// Matches returns the indices (into the record slice passed to NewJoiner)
// of all local records matching hidden record h, in ascending order.
func (j *Joiner) Matches(h *relational.Record) []int {
	var cands []int
	switch {
	case j.exactKeys != nil:
		cands = j.exactKeys[KeyOn(h, j.tk, j.hCols)]
	case j.prefixInv != nil:
		cands = j.jaccardMatches(h)
	default:
		for i, d := range j.recs {
			if j.matcher.Match(d, h) {
				cands = append(cands, i)
			}
		}
		return cands // full scan already applied the complete matcher
	}
	if len(j.verify) == 0 || len(cands) == 0 {
		return cands
	}
	out := make([]int, 0, len(cands))
	for _, i := range cands {
		ok := true
		for _, v := range j.verify {
			if !v.Match(j.recs[i], h) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

func (j *Joiner) jaccardMatches(h *relational.Record) []int {
	probe := projTokens(h, j.tk, j.hCols)
	j.probeSeen.reset(len(j.recs))
	var out []int
	for _, w := range j.prefixTokens(probe) {
		for _, i := range j.prefixInv[w] {
			if !j.probeSeen.add(i) {
				continue
			}
			if JaccardSim(projTokens(j.recs[i], j.tk, j.dCols), probe) >= j.threshold {
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// CoveredBy returns the distinct local-record indices matched by any record
// in the batch (a query result), ascending — q(D)_cover for one issued
// query.
func (j *Joiner) CoveredBy(batch []*relational.Record) []int {
	j.batchSeen.reset(len(j.recs))
	var out []int
	for _, h := range batch {
		for _, i := range j.Matches(h) {
			if !j.batchSeen.add(i) {
				continue
			}
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
