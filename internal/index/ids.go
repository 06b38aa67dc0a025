// Package index implements the indexing machinery of the paper's Section 6.3
// and Figure 3 on interned token IDs (tokenize.Dict): an inverted index over
// record documents for computing query frequencies |q(D)| by posting-list
// intersection (Figure 3(a)), in a plain form (InvertedIDs) and a block
// d-gap compressed form that also backs the memory-mapped corpus file
// (CompressedInvertedIDs), a batch resolver that computes q(D) or |q(D)|
// for a whole query pool at once, sharing the work of common prefixes
// (ResolveBatch, CountBatch), and a forward index mapping each record to
// the pool queries it satisfies (Figure 3(b), ForwardDense), which drives
// the delta-update mechanism of the selection loop.
package index

import (
	"slices"
	"sync"

	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// minShard is the fewest records worth a shard of its own: sharding
// overhead beats the gain on small inputs.
const minShard = 256

// ScanDict builds the frozen dictionary of the records' vocabulary, with
// token IDs assigned in sorted token order (tokenize.BuildDict over the
// sorted, deduplicated tokens). The IDs are therefore deterministic and
// monotone in token order: a sorted keyword list resolves to a sorted ID
// list. This is the dictionary querypool.Generate scans and a corpus
// cache stores.
func ScanDict(recs []*relational.Record, tk *tokenize.Tokenizer) *tokenize.Dict {
	seen := make(map[string]struct{})
	for _, r := range recs {
		for _, w := range r.Tokens(tk) {
			seen[w] = struct{}{}
		}
	}
	vocab := make([]string, 0, len(seen))
	for w := range seen {
		vocab = append(vocab, w)
	}
	slices.Sort(vocab)
	return tokenize.BuildDict(vocab)
}

// InvertedIDs is the inverted index of Figure 3(a): posting lists are
// keyed by tokenize.Dict token ID (a dense slice, no hashing) and hold
// sorted uint32 record IDs. Conjunctive lookups run as sorted-slice
// merge/galloping intersections with zero map probes and zero string
// comparisons.
//
// Tokens outside the dictionary are not indexed; they cannot appear in a
// pool query (see tokenize.Dict), so lookups are unaffected.
type InvertedIDs struct {
	postings [][]uint32 // token ID → sorted record IDs
	size     int
}

// BuildInvertedIDs indexes the records' tokens under dictionary d. Record
// IDs must be non-negative. With workers > 1 the record slice is split
// into contiguous chunks, each worker indexes its chunk into private
// posting lists, and the shards are merged in chunk order; tiny inputs
// build sequentially. Every list is sorted after the build, so records
// may arrive in any ID order and the layout is identical for any worker
// count.
func BuildInvertedIDs(recs []*relational.Record, tk *tokenize.Tokenizer, d *tokenize.Dict, workers int) *InvertedIDs {
	inv := &InvertedIDs{postings: make([][]uint32, d.Len()), size: len(recs)}
	if workers > len(recs)/minShard {
		workers = len(recs) / minShard
	}
	if workers <= 1 {
		for _, r := range recs {
			for _, w := range r.Tokens(tk) {
				if id, ok := d.ID(w); ok {
					inv.postings[id] = append(inv.postings[id], uint32(r.ID))
				}
			}
		}
		sortPostingsU32(inv.postings)
		return inv
	}
	shards := make([][][]uint32, workers)
	var wg sync.WaitGroup
	chunk := (len(recs) + workers - 1) / workers
	for s := 0; s < workers; s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			m := make([][]uint32, d.Len())
			for _, r := range recs[lo:hi] {
				for _, w := range r.Tokens(tk) {
					if id, ok := d.ID(w); ok {
						m[id] = append(m[id], uint32(r.ID))
					}
				}
			}
			shards[s] = m
		}(s, lo, hi)
	}
	wg.Wait()
	// Merge in shard order (contiguous chunks keep IDs grouped), then
	// sort defensively so the layout matches the sequential build for
	// any worker count.
	for _, m := range shards {
		for id, p := range m {
			inv.postings[id] = append(inv.postings[id], p...)
		}
	}
	sortPostingsU32(inv.postings)
	return inv
}

// BuildInvertedIDsObs is BuildInvertedIDs with build observability: the
// shard count actually used (after the min-shard clamp) and the build
// wall-clock land in the sink under phase "index_build". A nil sink is
// exactly BuildInvertedIDs.
func BuildInvertedIDsObs(recs []*relational.Record, tk *tokenize.Tokenizer, d *tokenize.Dict, workers int, o *obs.Obs) *InvertedIDs {
	if o != nil {
		defer o.Phase("index_build")()
	}
	inv := BuildInvertedIDs(recs, tk, d, workers)
	if o != nil {
		effective := workers
		if effective > len(recs)/minShard {
			effective = len(recs) / minShard
		}
		if effective < 1 {
			effective = 1
		}
		o.IndexBuilt(effective)
	}
	return inv
}

func sortPostingsU32(postings [][]uint32) {
	for _, p := range postings {
		slices.Sort(p)
	}
}

// sortListsByLen orders a handful of posting lists shortest-first. Query
// lists are tiny (≤ a few keywords), and an insertion sort keeps the
// slice off the heap — sort.Slice's interface capture forced an
// allocation per lookup.
func sortListsByLen(lists [][]uint32) {
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
}

// Size returns the number of indexed records.
func (inv *InvertedIDs) Size() int { return inv.size }

// DocFreq returns |I(w)| for token ID id.
func (inv *InvertedIDs) DocFreq(id uint32) int {
	if int(id) >= len(inv.postings) {
		return 0
	}
	return len(inv.postings[id])
}

// Postings returns the posting list for token ID id (shared slice;
// callers must not mutate).
func (inv *InvertedIDs) Postings(id uint32) []uint32 {
	if int(id) >= len(inv.postings) {
		return nil
	}
	return inv.postings[id]
}

// Lookup returns the sorted IDs of records satisfying the conjunctive
// token-ID query q — the paper's q(D) computed as ∩_{w∈q} I(w). An empty
// query matches nothing, and a token without postings short-circuits to
// nil. The result is freshly allocated and safe to retain.
func (inv *InvertedIDs) Lookup(q []uint32) []uint32 {
	return inv.LookupInto(q, nil)
}

// LookupInto is Lookup with a caller-supplied scratch buffer: the result
// is built in scratch's backing array when capacity allows, so resolvers
// looping over many queries can reuse one allocation. The returned slice
// aliases scratch; callers that retain it must copy.
func (inv *InvertedIDs) LookupInto(q []uint32, scratch []uint32) []uint32 {
	if len(q) == 0 {
		return nil
	}
	lists := make([][]uint32, 0, 8)
	for _, id := range q {
		p := inv.Postings(id)
		if len(p) == 0 {
			return nil
		}
		lists = append(lists, p)
	}
	// Rarest first: the intersection can never exceed the smallest list.
	sortListsByLen(lists)
	if len(lists) == 1 {
		return append(scratch[:0], lists[0]...)
	}
	result := IntersectU32(scratch[:0], lists[0], lists[1])
	for _, p := range lists[2:] {
		if len(result) == 0 {
			return nil
		}
		result = IntersectU32(result[:0], result, p)
	}
	return result
}

// Count returns |q(D)| for the token-ID query q, allocation-free: the
// rarest list is intersected through without materializing results.
func (inv *InvertedIDs) Count(q []uint32) int {
	if len(q) == 0 {
		return 0
	}
	lists := make([][]uint32, 0, 8)
	for _, id := range q {
		p := inv.Postings(id)
		if len(p) == 0 {
			return 0
		}
		lists = append(lists, p)
	}
	sortListsByLen(lists)
	if len(lists) == 1 {
		return len(lists[0])
	}
	// Count by probing each candidate of the rarest list against every
	// other list with galloping search — no output buffer needed.
	n := 0
outer:
	for _, v := range lists[0] {
		for _, p := range lists[1:] {
			if !containsU32(p, v) {
				continue outer
			}
		}
		n++
	}
	return n
}

// IntersectU32 appends the intersection of sorted slices a and b to dst
// and returns it. When the lengths are lopsided it gallops (binary
// search) over the longer list.
// dst may alias a (the in-place re-intersection pattern); it must not
// alias b.
func IntersectU32(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > 16*len(a) {
		for _, v := range a {
			if containsU32(b, v) {
				dst = append(dst, v)
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av < bv:
			i++
		case av > bv:
			j++
		default:
			dst = append(dst, av)
			i++
			j++
		}
	}
	return dst
}

// countIntersectU32 returns |a ∩ b| for sorted slices, by IntersectU32's
// merge/gallop choice but without materializing the intersection.
func countIntersectU32(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	if len(b) > 16*len(a) {
		for _, v := range a {
			if containsU32(b, v) {
				n++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av < bv:
			i++
		case av > bv:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// containsU32 reports whether sorted slice p contains v (binary search).
func containsU32(p []uint32, v uint32) bool {
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(p) && p[lo] == v
}

// ForwardDense is the slice-backed forward index of Figure 3(b) for dense
// record IDs: F(d) lives at lists[d], so the per-removal lookup is an
// array index instead of a map probe. Query IDs are appended in
// ascending order by construction (the setup loop walks pool queries in
// ID order), which RemoveList's callers rely on for binary search.
type ForwardDense struct {
	lists   [][]uint32
	entries int
}

// NewForwardDense returns a forward index over records 0..n-1.
func NewForwardDense(n int) *ForwardDense {
	return &ForwardDense{lists: make([][]uint32, n)}
}

// Add records that query qid is satisfied by record rid.
func (f *ForwardDense) Add(rid int, qid uint32) {
	f.lists[rid] = append(f.lists[rid], qid)
	f.entries++
}

// List returns F(rid) (shared slice; callers must not mutate).
func (f *ForwardDense) List(rid int) []uint32 { return f.lists[rid] }

// Remove returns F(rid) and drops it from the index; the record is
// leaving D and its list will not be consulted again. The returned slice
// stays valid until the caller's next allocation churn (it is the
// original backing array).
func (f *ForwardDense) Remove(rid int) []uint32 {
	l := f.lists[rid]
	f.lists[rid] = nil
	f.entries -= len(l)
	return l
}

// Take is Remove without the shared entry-counter update — the race-free
// form for shard-parallel batch removal, where each shard owns a disjoint
// record range but the counter is shared. The caller settles the counter
// once per batch with DropEntries.
func (f *ForwardDense) Take(rid int) []uint32 {
	l := f.lists[rid]
	f.lists[rid] = nil
	return l
}

// DropEntries subtracts n entries from the total, balancing a batch of
// Take calls.
func (f *ForwardDense) DropEntries(n int) { f.entries -= n }

// Len returns the number of records with live forward lists.
func (f *ForwardDense) Len() int {
	n := 0
	for _, l := range f.lists {
		if len(l) > 0 {
			n++
		}
	}
	return n
}

// TotalEntries returns Σ|F(d)| over live lists — the Appendix B term.
func (f *ForwardDense) TotalEntries() int { return f.entries }
