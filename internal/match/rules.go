package match

import "smartcrawl/internal/relational"

// BlockedAnd is an entity-resolution rule of the kind practical systems
// use — e.g. "name Jaccard ≥ 0.8 AND city exactly equal" — whose first
// component is indexable: the Joiner indexes the block (an *Exact or
// *Jaccard matcher, typically on key columns via NewExactOn / NewJaccardOn)
// and the remaining predicates verify each block candidate — the classic
// blocking-then-verification ER pipeline (Christen [16]). The Joiner
// type-switches on *BlockedAnd; with any other block it falls back to a
// full scan. A BlockedAnd is itself a Matcher, so it plugs into the crawl
// loop's black box unchanged.
type BlockedAnd struct {
	// Block is the indexable candidate generator (must be *Exact or
	// *Jaccard for the Joiner to index it; any Matcher works for plain
	// Match calls).
	Block Matcher
	// Verify are the additional predicates every candidate must pass.
	Verify []Matcher
}

// NewBlockedAnd builds a blocking-verification matcher.
func NewBlockedAnd(block Matcher, verify ...Matcher) *BlockedAnd {
	return &BlockedAnd{Block: block, Verify: verify}
}

// Match implements Matcher.
func (m *BlockedAnd) Match(d, h *relational.Record) bool {
	if !m.Block.Match(d, h) {
		return false
	}
	for _, v := range m.Verify {
		if !v.Match(d, h) {
			return false
		}
	}
	return true
}
