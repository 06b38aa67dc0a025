package index

import (
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// CompressedInvertedIDs is InvertedIDs with block d-gap posting storage,
// laid out for the out-of-core corpus path: every posting payload lives
// in ONE shared block buffer (see block.go) indexed by per-token
// skip-entry ranges, so the whole index is three flat arrays plus one
// byte slice. The same structure backs both the heap-allocated
// build and the memory-mapped corpus file — OpenCorpus points data at the
// mapped region and the lookup kernels below run unchanged over it.
//
// Lookups are conjunctive merge/gallop intersections that consult the
// skip entries first: a block whose last ID is below the current
// candidate is skipped without being decoded.
type CompressedInvertedIDs struct {
	skipIdx []uint32    // token ID → first skip entry; len = vocab+1 (sentinel)
	counts  []uint32    // token ID → |I(w)|
	skips   []blockSkip // all tokens' skip entries, token-major
	data    []byte      // shared block payload buffer (heap or mmap)
	size    int
}

// BuildCompressedInvertedIDs indexes the records' tokens under dictionary
// d with block d-gap storage. Tokens outside the dictionary are not
// indexed (they cannot appear in a pool query).
func BuildCompressedInvertedIDs(recs []*relational.Record, tk *tokenize.Tokenizer, d *tokenize.Dict) *CompressedInvertedIDs {
	// Gather plain lists first (IDs may arrive unsorted).
	tmp := make([][]uint32, d.Len())
	for _, r := range recs {
		for _, w := range r.Tokens(tk) {
			if id, ok := d.ID(w); ok {
				tmp[id] = append(tmp[id], uint32(r.ID))
			}
		}
	}
	sortPostingsU32(tmp)
	inv := &CompressedInvertedIDs{
		skipIdx: make([]uint32, d.Len()+1),
		counts:  make([]uint32, d.Len()),
		size:    len(recs),
	}
	for id, ids := range tmp {
		inv.skipIdx[id] = uint32(len(inv.skips))
		inv.counts[id] = uint32(len(ids))
		inv.data, inv.skips = appendPostingBlocks(inv.data, inv.skips, ids)
	}
	inv.skipIdx[d.Len()] = uint32(len(inv.skips))
	return inv
}

// Size returns the number of indexed records.
func (inv *CompressedInvertedIDs) Size() int { return inv.size }

// DocFreq returns |I(w)| for token ID id without decompressing.
func (inv *CompressedInvertedIDs) DocFreq(id uint32) int {
	if int(id) >= len(inv.counts) {
		return 0
	}
	return int(inv.counts[id])
}

// Bytes returns the total posting storage — payload plus skip entries —
// for the space-efficiency bench.
func (inv *CompressedInvertedIDs) Bytes() int {
	return len(inv.data) + blockSkipBytes*len(inv.skips)
}

// compCursor walks one token's posting blocks monotonically forward,
// decoding lazily: seeking to a candidate first advances over whole
// blocks via the skip entries and decodes only the block that can contain
// it. Candidates must be probed in ascending order (the intersection
// kernels guarantee that), so the cursor never rewinds.
type compCursor struct {
	inv    *CompressedInvertedIDs
	sk     int // current skip entry
	skEnd  int // one past the token's final skip entry
	loaded int // decoded skip entry, or -1
	buf    []uint32
	count  int // |I(w)|, for the rarest-first sort
}

// init points the cursor at token id's posting blocks and reports whether
// the token has any postings.
func (c *compCursor) init(inv *CompressedInvertedIDs, id uint32) bool {
	if int(id) >= len(inv.counts) || inv.counts[id] == 0 {
		return false
	}
	c.inv = inv
	c.sk = int(inv.skipIdx[id])
	c.skEnd = int(inv.skipIdx[id+1])
	c.loaded = -1
	c.count = int(inv.counts[id])
	return true
}

// contains reports whether the list holds v, advancing the cursor past
// every block that ends below v. Returns done=true once the list is
// exhausted below v — the whole intersection can stop then.
func (c *compCursor) contains(v uint32) (found, done bool) {
	for c.sk < c.skEnd && c.inv.skips[c.sk].last < v {
		c.sk++
	}
	if c.sk == c.skEnd {
		return false, true
	}
	sk := c.inv.skips[c.sk]
	if sk.first > v {
		return false, false
	}
	if sk.first == v || sk.last == v {
		return true, false
	}
	if c.loaded != c.sk {
		c.buf = mustDecodePostingBlock(c.buf, c.inv.data, sk)
		c.loaded = c.sk
	}
	return containsU32(c.buf, v), false
}

// Lookup returns the sorted record IDs satisfying the conjunctive token-ID
// query q, identical in contract to InvertedIDs.Lookup.
func (inv *CompressedInvertedIDs) Lookup(q []uint32) []uint32 {
	return inv.LookupInto(q, nil)
}

// LookupInto is Lookup with a caller-supplied scratch buffer, mirroring
// InvertedIDs.LookupInto: the result is built in scratch's backing array
// when capacity allows. The returned slice aliases scratch; callers that
// retain it must copy. Safe for concurrent use (cursor state is per call).
func (inv *CompressedInvertedIDs) LookupInto(q []uint32, scratch []uint32) []uint32 {
	out, _ := inv.intersect(q, scratch[:0], false)
	return out
}

// Count returns |q(D)| for the token-ID query q without materializing the
// intersection: matches are counted, never appended, so the allocations
// do not grow with the match count.
func (inv *CompressedInvertedIDs) Count(q []uint32) int {
	if len(q) == 1 {
		return inv.DocFreq(q[0])
	}
	_, n := inv.intersect(q, nil, true)
	return n
}

// intersect drives the conjunctive merge: iterate the rarest list block
// by block and probe every candidate against the other lists' cursors,
// skipping undecoded blocks via the skip entries. It returns dst with the
// matches appended (none when countOnly) and the match count.
func (inv *CompressedInvertedIDs) intersect(q []uint32, dst []uint32, countOnly bool) ([]uint32, int) {
	if len(q) == 0 {
		return nil, 0
	}
	var curs [8]compCursor
	lists := curs[:0]
	if len(q) > len(curs) {
		lists = make([]compCursor, 0, len(q))
	}
	for _, id := range q {
		var c compCursor
		if !c.init(inv, id) {
			return nil, 0
		}
		lists = append(lists, c)
	}
	// Rarest first (insertion sort: q is tiny): the intersection can never
	// exceed the smallest list, and probing descends from it.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && lists[j].count < lists[j-1].count; j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	rare := &lists[0]
	others := lists[1:]
	var blk []uint32
	n := 0
outer:
	for sk := rare.sk; sk < rare.skEnd; sk++ {
		blk = mustDecodePostingBlock(blk, inv.data, inv.skips[sk])
		for _, v := range blk {
			matched := true
			for i := range others {
				found, done := others[i].contains(v)
				if done {
					break outer
				}
				if !found {
					matched = false
					break
				}
			}
			if matched {
				n++
				if !countOnly {
					dst = append(dst, v)
				}
			}
		}
	}
	return dst, n
}
