package index

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// batchCorpus builds n records over a 12-word vocabulary with skewed word
// frequencies (word w in about one record in 2^(w/2+1)), so the common
// words span several posting blocks and the rare ones are short enough
// for the intersections to gallop. The dictionary holds all 12 words but
// no record uses the last one, so ID 11 is a term with no postings; IDs
// 12 and up are outside the dictionary.
func batchCorpus(seed uint64, n int) (*InvertedIDs, *CompressedInvertedIDs) {
	tk := tokenize.New()
	vocab := make([]string, 12)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%02d", i)
	}
	dict := tokenize.BuildDict(vocab)
	rng := stats.NewRNG(seed)
	recs := make([]*relational.Record, n)
	for i := range recs {
		doc := ""
		for w := 0; w < 11; w++ {
			if rng.Intn(2<<(w/2)) == 0 {
				doc += vocab[w] + " "
			}
		}
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	return BuildInvertedIDs(recs, tk, dict, 1), BuildCompressedInvertedIDs(recs, tk, dict)
}

// batchQueries parses raw into sorted, duplicate-free token-ID queries:
// each byte adds term b%15 to the current query and 0xff ends it.
func batchQueries(raw []byte) [][]uint32 {
	var qs [][]uint32
	var cur []uint32
	flush := func() {
		slices.Sort(cur)
		qs = append(qs, slices.Compact(cur))
		cur = nil
	}
	for _, b := range raw {
		if b == 0xff {
			flush()
			continue
		}
		cur = append(cur, uint32(b%15))
	}
	flush()
	return qs
}

// checkBatch resolves qs through both batch entry points on src and
// compares every result with per-query InvertedIDs.Lookup.
func checkBatch(t *testing.T, name string, ref *InvertedIDs, src PostingSource, qs [][]uint32, workers int) {
	t.Helper()
	got := make([][]uint32, len(qs))
	calls := make([]int, len(qs))
	ResolveBatch(src, qs, workers, func(i int, ids []uint32) {
		calls[i]++
		got[i] = append([]uint32{}, ids...)
	})
	counts := CountBatch(src, qs, workers)
	for i, q := range qs {
		want := ref.Lookup(q)
		if calls[i] != 1 {
			t.Fatalf("%s workers %d: query %d %v emitted %d times", name, workers, i, q, calls[i])
		}
		if len(got[i]) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got[i], want)) {
			t.Fatalf("%s workers %d: ResolveBatch(%v) = %v, Lookup = %v", name, workers, q, got[i], want)
		}
		if counts[i] != len(want) {
			t.Fatalf("%s workers %d: CountBatch(%v) = %d, |Lookup| = %d", name, workers, q, counts[i], len(want))
		}
	}
}

// FuzzResolveBatch: the batch resolver agrees with per-query Lookup on
// every query, on both index forms, at every worker count — whatever the
// mix of duplicate queries, queries that prefix one another, single-term
// queries, terms without postings or outside the dictionary, and queries
// longer than the compressed kernel's eight-cursor fast path.
func FuzzResolveBatch(f *testing.F) {
	defer func(old int) { batchMinChunk = old }(batchMinChunk)
	batchMinChunk = 1
	f.Add(uint64(1), uint16(300), []byte{1, 2, 0xff, 1, 2, 0xff, 1, 2}) // duplicates
	f.Add(uint64(2), uint16(500), []byte{1, 0xff, 1, 2, 0xff, 1, 2, 3, 0xff, 1, 2, 3, 4})
	f.Add(uint64(3), uint16(200), []byte{0, 0xff, 5, 0xff, 10, 0xff, 3})          // single terms
	f.Add(uint64(4), uint16(400), []byte{0, 11, 0xff, 11, 0xff, 12, 0xff, 1, 13}) // no postings
	f.Add(uint64(5), uint16(700), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xff, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint64(6), uint16(0), []byte{0xff, 0xff, 3}) // empty corpus, empty queries
	f.Fuzz(func(t *testing.T, seed uint64, nrec uint16, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		plain, comp := batchCorpus(seed, int(nrec%800))
		qs := batchQueries(raw)
		for workers := 1; workers <= 4; workers++ {
			checkBatch(t, "plain", plain, plain, qs, workers)
			checkBatch(t, "compressed", plain, comp, qs, workers)
		}
	})
}

// TestResolveBatchMatchesLookup runs the fuzz target's check over every
// query of up to three terms, with and without a term lacking postings,
// in shuffled order.
func TestResolveBatchMatchesLookup(t *testing.T) {
	defer func(old int) { batchMinChunk = old }(batchMinChunk)
	batchMinChunk = 16
	plain, comp := batchCorpus(7, 600)
	var qs [][]uint32
	for a := uint32(0); a < 13; a++ {
		qs = append(qs, []uint32{a})
		for b := a + 1; b < 13; b++ {
			qs = append(qs, []uint32{a, b})
			for c := b + 1; c < 13; c++ {
				qs = append(qs, []uint32{a, b, c})
			}
		}
	}
	qs = append(qs, nil, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	stats.NewRNG(3).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for _, workers := range []int{1, 2, 4} {
		checkBatch(t, "plain", plain, plain, qs, workers)
		checkBatch(t, "compressed", plain, comp, qs, workers)
	}
}

// TestResolveBatchAllocsFlat: a batch allocates per batch, not per query.
// The large batch is the small one's queries eight times over, shuffled,
// so both walk the same distinct queries and touch the same terms; only
// the query count differs, and the allocation counts must not.
func TestResolveBatchAllocsFlat(t *testing.T) {
	tk := tokenize.New()
	recs := zipfRecords(5000)
	dict := ScanDict(recs, tk)
	plain := BuildInvertedIDs(recs, tk, dict, 1)
	comp := BuildCompressedInvertedIDs(recs, tk, dict)
	query := func(words ...int) []uint32 {
		kw := make([]string, len(words))
		for i, w := range words {
			kw[i] = fmt.Sprintf("w%d", w)
		}
		q, _ := dict.Resolve(kw)
		slices.Sort(q)
		return q
	}
	var small [][]uint32
	for a := 0; a < 20; a++ {
		small = append(small, query(a))
		for b := a + 1; b < 20; b++ {
			small = append(small, query(a, b))
			for c := b + 1; c < 20; c += 5 {
				small = append(small, query(a, b, c))
			}
		}
	}
	var large [][]uint32
	for i := 0; i < 8; i++ {
		large = append(large, small...)
	}
	stats.NewRNG(11).Shuffle(len(large), func(i, j int) { large[i], large[j] = large[j], large[i] })

	sink := 0
	emit := func(_ int, ids []uint32) { sink += len(ids) }
	for _, src := range []struct {
		name string
		src  PostingSource
	}{{"plain", plain}, {"compressed", comp}} {
		resolveSmall := testing.AllocsPerRun(5, func() { ResolveBatch(src.src, small, 1, emit) })
		resolveLarge := testing.AllocsPerRun(5, func() { ResolveBatch(src.src, large, 1, emit) })
		countSmall := testing.AllocsPerRun(5, func() { CountBatch(src.src, small, 1) })
		countLarge := testing.AllocsPerRun(5, func() { CountBatch(src.src, large, 1) })
		t.Logf("%s: %d queries → %.0f/%.0f allocs (resolve/count); %d queries → %.0f/%.0f",
			src.name, len(small), resolveSmall, countSmall, len(large), resolveLarge, countLarge)
		if resolveLarge > resolveSmall || countLarge > countSmall {
			t.Fatalf("%s: allocations grow with the query count: resolve %.0f → %.0f, count %.0f → %.0f",
				src.name, resolveSmall, resolveLarge, countSmall, countLarge)
		}
	}
}
