package crawler

// Equivalence tests pinning the interned integer kernels against the
// retained string reference implementations, plus the bucketOf pin. These
// are in-package: both sides of each equivalence are unexported.

import (
	"math/bits"
	"testing"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// countSatisfying counts the sample positions (matching some local record)
// whose token sets contain every query keyword. The production path runs
// the interned kernel (countSatisfyingIDs over precomputed counts; see
// selection.go); this string implementation is the reference the
// equivalence test checks the kernel against.
func countSatisfying(positions []int, sampleTokens []map[string]struct{}, q deepweb.Query) int {
	if len(positions) == 0 {
		return 0
	}
	n := 0
	for _, pos := range positions {
		set := sampleTokens[pos]
		ok := true
		for _, w := range q {
			if _, in := set[w]; !in {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// TestCountSatisfyingKernelMatchesString checks, on random corpora, that
// countSatisfyingIDs over interned sorted token sets returns exactly what
// the string countSatisfying returns over the equivalent map sets — for
// random position subsets and random queries, including queries with
// out-of-vocabulary keywords (which must count zero on both sides when
// the query resolves at all; unresolvable queries cannot arise in the
// production path, where keywords always come from the dictionary).
func TestCountSatisfyingKernelMatchesString(t *testing.T) {
	rng := stats.NewRNG(1234)
	vocab := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	dict := tokenize.BuildDict(vocab)

	for trial := 0; trial < 80; trial++ {
		nSets := 1 + rng.Intn(30)
		mapSets := make([]map[string]struct{}, nSets)
		idSets := make([][]uint32, nSets)
		for i := range mapSets {
			k := rng.Intn(6)
			set := make(map[string]struct{}, k)
			words := make([]string, 0, k)
			for j := 0; j < k; j++ {
				w := vocab[rng.Intn(len(vocab))]
				set[w] = struct{}{}
				words = append(words, w)
			}
			mapSets[i] = set
			idSets[i] = dict.SortedSet(words)
		}
		// A random subset of positions, mirroring the matched-position
		// lists the joiner produces.
		var pos []int
		var pos32 []int32
		for i := 0; i < nSets; i++ {
			if rng.Intn(2) == 0 {
				pos = append(pos, i)
				pos32 = append(pos32, int32(i))
			}
		}
		for probe := 0; probe < 20; probe++ {
			qlen := 1 + rng.Intn(3)
			q := make(deepweb.Query, qlen)
			for j := range q {
				q[j] = vocab[rng.Intn(len(vocab))]
			}
			qids, ok := dict.Resolve(q)
			if !ok {
				t.Fatalf("trial %d: in-vocab query %v failed to resolve", trial, q)
			}
			want := countSatisfying(pos, mapSets, q)
			got := countSatisfyingIDs(pos32, idSets, qids)
			if got != want {
				t.Fatalf("trial %d: countSatisfyingIDs(%v) = %d, string reference = %d",
					trial, q, got, want)
			}
		}
	}
}

// oldBucketOf is the hand-rolled bit-length loop the calibration buckets
// used before the math/bits rewrite, kept verbatim as the test oracle.
func oldBucketOf(n int) int {
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}

// TestBucketOfMatchesShiftLoop pins bits.Len(uint(n)) — the production
// bucketOf in Smart.Run — to the original shift-loop definition across
// small values and large magnitudes.
func TestBucketOfMatchesShiftLoop(t *testing.T) {
	bucketOf := func(n int) int { return bits.Len(uint(n)) }
	for n := 0; n <= 1<<16; n++ {
		if got, want := bucketOf(n), oldBucketOf(n); got != want {
			t.Fatalf("bucketOf(%d) = %d, shift loop = %d", n, got, want)
		}
	}
	for _, n := range []int{1 << 20, 1<<20 + 1, 1<<30 - 1, 1 << 30, 1<<62 - 1, 1 << 62} {
		if got, want := bucketOf(n), oldBucketOf(n); got != want {
			t.Fatalf("bucketOf(%d) = %d, shift loop = %d", n, got, want)
		}
	}
}

// TestSelectionRecomputeMatchesScratch cross-checks the incremental
// sample-match statistics against recompute-from-scratch after a burst of
// removals: recompute derives freqD/matchS from the considered set and
// the precomputed counts, so agreement here means the per-removal
// subtractions never drift.
func TestSelectionRecomputeMatchesScratch(t *testing.T) {
	u := newBenchUniverse(t)
	st := newBenchSelState(u)
	rng := stats.NewRNG(5)
	n := len(u.in.Local.Records)
	for step := 0; step < 200; step++ {
		d := rng.Intn(n)
		if !st.sel.considered[d] {
			continue
		}
		st.sel.remove(d)
	}
	for qid, qs := range st.sel.states {
		if qs == nil {
			continue
		}
		freqD, matchS := qs.freqD, qs.matchS
		st.sel.recompute(qs)
		if qs.freqD != freqD || qs.matchS != matchS {
			t.Fatalf("query %d: incremental (freqD=%d matchS=%d) != recompute (freqD=%d matchS=%d)",
				qid, freqD, matchS, qs.freqD, qs.matchS)
		}
	}
}
