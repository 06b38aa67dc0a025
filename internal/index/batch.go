package index

import (
	"slices"
	"sync"
)

// The batch resolver: one pass over a whole set of conjunctive token-ID
// queries — the query pool's q(D) resolution and the sampled pool's exact
// support recount — instead of one independent intersection per query.
// The queries are walked in lexicographic order, so neighbouring queries
// share their leading terms; the intersection of every prefix of the
// current query sits on a stack (level k = I(q₀) ∩ … ∩ I(q_k)), and the
// next query recomputes only the levels below its longest common prefix
// with the previous one. Every term's full posting list comes from one
// table read once per batch: InvertedIDs' own lists, or, for the
// block-compressed index, each referenced term decoded once into a
// batch-private arena that is released when the batch ends.
//
// A query's result is the same sorted ID set per-query Lookup returns
// (intersection is order-independent), and every worker walks its own
// contiguous slice of the sorted order from an empty stack, so the output
// is a pure function of the queries — identical for any worker count.

// PostingSource is an inverted index the batch resolver reads whole
// posting lists from: *InvertedIDs or *CompressedInvertedIDs.
type PostingSource interface {
	// postingTable returns a token-ID-indexed table holding the full
	// posting list of every term qs references (other entries may be
	// nil). The table is read-only and lives for one batch.
	postingTable(qs [][]uint32) [][]uint32
}

func (inv *InvertedIDs) postingTable([][]uint32) [][]uint32 { return inv.postings }

// postingTable decodes every term the batch references exactly once, into
// one arena sized by the terms' document frequencies: the cache holds no
// more than an in-memory InvertedIDs would for those terms, and it is
// garbage as soon as the batch returns.
func (inv *CompressedInvertedIDs) postingTable(qs [][]uint32) [][]uint32 {
	table := make([][]uint32, len(inv.counts))
	seen := make([]bool, len(inv.counts))
	var terms []uint32
	total := 0
	for _, q := range qs {
		for _, id := range q {
			if int(id) < len(seen) && !seen[id] {
				seen[id] = true
				terms = append(terms, id)
				total += int(inv.counts[id])
			}
		}
	}
	arena := make([]uint32, total)
	for _, id := range terms {
		n := int(inv.counts[id])
		list := arena[:n:n]
		arena = arena[n:]
		pos := 0
		for sk := inv.skipIdx[id]; sk < inv.skipIdx[id+1]; sk++ {
			s := inv.skips[sk]
			mustDecodePostingBlock(list[pos:pos:pos+int(s.n)], inv.data, s)
			pos += int(s.n)
		}
		table[id] = list
	}
	return table
}

// batchMinChunk is the fewest queries worth a resolver goroutine of their
// own; smaller batches walk on the caller's goroutine. A var, not a
// const, so tests can push tiny batches through the parallel walk.
var batchMinChunk = 256

// ResolveBatch computes q(D) for every query of qs (each a sorted token-ID
// list) and calls emit(i, ids) once per query with the sorted record IDs
// satisfying qs[i] — exactly what src's per-query Lookup returns, nil or
// empty when nothing matches. ids aliases the resolver's scratch and is
// valid only during the call: a caller that keeps it must copy. With
// workers > 1, emit runs concurrently for different i, so it must write
// only per-query outputs.
func ResolveBatch(src PostingSource, qs [][]uint32, workers int, emit func(i int, ids []uint32)) {
	walkBatch(src, qs, workers, func(s *prefixStack, i int32, q []uint32) {
		if len(q) == 0 {
			emit(int(i), nil)
			return
		}
		emit(int(i), s.resolve(q))
	})
}

// CountBatch returns |q(D)| for every query of qs, index-aligned: the
// batch form of per-query Count. Only the shared prefixes are
// materialized; each query's last term is counted against its prefix
// without building the final intersection.
func CountBatch(src PostingSource, qs [][]uint32, workers int) []int {
	counts := make([]int, len(qs))
	walkBatch(src, qs, workers, func(s *prefixStack, i int32, q []uint32) {
		switch len(q) {
		case 0: // matches nothing
		case 1:
			counts[i] = len(s.postings(q[0]))
		default:
			counts[i] = countIntersectU32(s.resolve(q[:len(q)-1]), s.postings(q[len(q)-1]))
		}
	})
	return counts
}

// walkBatch sorts the queries lexicographically and hands each, in that
// order, to visit along with its worker's prefix stack. The sorted order
// is split into one contiguous chunk per worker.
func walkBatch(src PostingSource, qs [][]uint32, workers int, visit func(s *prefixStack, i int32, q []uint32)) {
	table := src.postingTable(qs)
	order := make([]int32, len(qs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(qs[a], qs[b]) })
	run := func(part []int32) {
		s := &prefixStack{table: table}
		for _, i := range part {
			visit(s, i, qs[i])
		}
	}
	if workers > len(order)/batchMinChunk {
		workers = len(order) / batchMinChunk
	}
	if workers <= 1 {
		run(order)
		return
	}
	chunk := (len(order) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(order); lo += chunk {
		part := order[lo:min(lo+chunk, len(order))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(part)
		}()
	}
	wg.Wait()
}

// prefixStack holds the intersections of the current query's prefixes:
// levels[k] = I(prev[0]) ∩ … ∩ I(prev[k]) for k < len(prev). Level 0
// aliases the posting table; deeper levels live in bufs[k], which the
// stack owns and reuses.
type prefixStack struct {
	table  [][]uint32
	prev   []uint32
	levels [][]uint32
	bufs   [][]uint32
}

func (s *prefixStack) postings(id uint32) []uint32 {
	if int(id) >= len(s.table) {
		return nil
	}
	return s.table[id]
}

// resolve returns I(q[0]) ∩ … ∩ I(q[len(q)-1]) for a non-empty q, reusing
// every level of the longest prefix q shares with the previous call.
func (s *prefixStack) resolve(q []uint32) []uint32 {
	d := 0
	for d < len(s.prev) && d < len(q) && s.prev[d] == q[d] {
		d++
	}
	for len(s.levels) < len(q) {
		s.levels = append(s.levels, nil)
		s.bufs = append(s.bufs, nil)
	}
	for ; d < len(q); d++ {
		p := s.postings(q[d])
		if d == 0 {
			s.levels[0] = p
			continue
		}
		a := s.levels[d-1]
		// The intersection never outgrows its shorter input; sizing the
		// buffer up front keeps IntersectU32 from reallocating mid-merge.
		if need := min(len(a), len(p)); cap(s.bufs[d]) < need {
			s.bufs[d] = make([]uint32, 0, need)
		}
		s.bufs[d] = IntersectU32(s.bufs[d][:0], a, p)
		s.levels[d] = s.bufs[d]
	}
	s.prev = q
	return s.levels[len(q)-1]
}
