package match

import (
	"math"
	"slices"
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
//     threshold verification. Tokens are interned as their ranks in that
//     order, and each local record's projected token set is stored once as
//     ascending ranks, so a candidate is verified by a merge count against
//     the probe's sorted ranks;
//   - any other Matcher: full scan (correct for arbitrary black boxes).
//
// Probes reuse internal scratch (dedup stamps, the probe's rank buffer), so
// a Joiner must not be probed from multiple goroutines concurrently; build
// one Joiner per goroutine instead.
type Joiner struct {
	recs    []*relational.Record
	tk      *tokenize.Tokenizer
	matcher Matcher

	// exact join state
	exactKeys map[string][]int

	// jaccard prefix-filter state: each local token's rank in the global
	// order (rarer tokens first), each record's token set as ascending
	// ranks, the records indexed by the ranks in their prefix, and the
	// records whose projection is empty (they match only an empty probe).
	threshold float64
	rank      map[string]uint32
	sets      [][]uint32
	prefixInv [][]int
	empty     []int

	// column projections taken from the matcher (nil = all columns)
	dCols, hCols []int

	// verify holds BlockedAnd verification predicates applied to every
	// index candidate.
	verify []Matcher

	// probe-side scratch, reused across sequential probes: candidate dedup
	// within one probe (probeSeen), across one batch (batchSeen — separate
	// because CoveredBy nests Matches), and the probe's sorted ranks.
	probeSeen denseSeen
	batchSeen denseSeen
	rankBuf   []uint32
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
	toks := make([][]string, len(j.recs))
	df := make(map[string]int)
	total := 0
	for i, r := range j.recs {
		toks[i] = projTokens(r, j.tk, j.dCols)
		total += len(toks[i])
		for _, w := range toks[i] {
			df[w]++
		}
	}
	// Global order: ascending document frequency, ties by token text.
	vocab := make([]string, 0, len(df))
	for w := range df {
		vocab = append(vocab, w)
	}
	sort.Slice(vocab, func(a, b int) bool {
		if df[vocab[a]] != df[vocab[b]] {
			return df[vocab[a]] < df[vocab[b]]
		}
		return vocab[a] < vocab[b]
	})
	j.rank = make(map[string]uint32, len(vocab))
	for i, w := range vocab {
		j.rank[w] = uint32(i)
	}
	j.sets = make([][]uint32, len(j.recs))
	j.prefixInv = make([][]int, len(vocab))
	flat := make([]uint32, 0, total)
	for i, ws := range toks {
		for _, w := range ws {
			flat = append(flat, j.rank[w])
		}
		set := flat[len(flat)-len(ws) : len(flat) : len(flat)]
		slices.Sort(set)
		j.sets[i] = set
		if len(set) == 0 {
			j.empty = append(j.empty, i)
		}
		for _, r := range set[:j.prefixLen(len(set))] {
			j.prefixInv[r] = append(j.prefixInv[r], i)
		}
	}
}

// prefixLen returns the All-Pairs prefix length n − t + 1 of a set of n
// tokens, clamped to [1, n] (0 for an empty set), where t is the least
// overlap k whose k/n passes verification's float64 test. t starts at
// ⌈τ·n⌉ and is lowered while t−1 passes too: τ·n can round up past an
// integer the test accepts (0.07·100 is 7.000000000000001, yet 7/100
// passes τ 0.07), and a prefix one token short would miss such a pair.
func (j *Joiner) prefixLen(n int) int {
	t := int(math.Ceil(j.threshold * float64(n)))
	for t > 0 && float64(t-1)/float64(n) >= j.threshold {
		t--
	}
	return min(max(n-t+1, 1), n)
}

// Matches returns the indices (into the record slice passed to NewJoiner)
// of all local records matching hidden record h, in ascending order.
func (j *Joiner) Matches(h *relational.Record) []int {
	var cands []int
	switch {
	case j.exactKeys != nil:
		cands = j.exactKeys[KeyOn(h, j.tk, j.hCols)]
	case j.rank != nil:
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
	if len(probe) == 0 {
		return j.empty // JaccardSim is 1 for two empty sets, 0 for one
	}
	known := j.rankBuf[:0]
	for _, w := range probe {
		if r, ok := j.rank[w]; ok {
			known = append(known, r)
		}
	}
	slices.Sort(known)
	j.rankBuf = known
	// A token no local record has still counts in |h|, and so in the
	// prefix length, but it would sort after every known rank and has no
	// postings: only the known part of the prefix yields candidates.
	n := len(probe)
	j.probeSeen.reset(len(j.recs))
	var out []int
	for _, r := range known[:min(j.prefixLen(n), len(known))] {
		for _, i := range j.prefixInv[r] {
			if !j.probeSeen.add(i) {
				continue
			}
			d := j.sets[i]
			inter := overlapRanks(d, known)
			if float64(inter)/float64(len(d)+n-inter) >= j.threshold {
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// overlapRanks counts the ranks common to two ascending rank sets.
func overlapRanks(a, b []uint32) int {
	n, x, y := 0, 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			n, x, y = n+1, x+1, y+1
		}
	}
	return n
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
