package index

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// The core interning equivalence property: on random corpora, the
// ID-keyed indexes (plain and compressed) agree with a brute-force scan of
// every record's token set on every Lookup and Count — including queries
// with out-of-corpus keywords, which resolve to "no ID" and must match
// nothing.
func TestInvertedIDsMatchesStringIndex(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(41)
	vocab := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg"}

	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		recs := make([]*relational.Record, n)
		for i := 0; i < n; i++ {
			k := 1 + rng.Intn(5)
			doc := ""
			for j := 0; j < k; j++ {
				doc += vocab[rng.Intn(len(vocab))] + " "
			}
			recs[i] = &relational.Record{ID: i, Values: []string{doc}}
		}
		dict := ScanDict(recs, tk)
		ids := BuildInvertedIDs(recs, tk, dict, 1)
		comp := BuildCompressedInvertedIDs(recs, tk, dict)

		for probe := 0; probe < 20; probe++ {
			qlen := 1 + rng.Intn(3)
			q := make([]string, qlen)
			for j := range q {
				if rng.Intn(10) == 0 {
					q[j] = "zz-missing" // out-of-corpus keyword
				} else {
					q[j] = vocab[rng.Intn(len(vocab))]
				}
			}
			want := bruteForceLookup(recs, tk, q)

			qids, ok := dict.Resolve(q)
			if !ok {
				// Some keyword has no ID: the scan must agree that
				// nothing matches.
				if len(want) != 0 {
					t.Fatalf("trial %d: Resolve(%v) failed but the scan found %v", trial, q, want)
				}
				continue
			}
			got := ids.Lookup(qids)
			if !u32Equal(got, want) {
				t.Fatalf("trial %d: InvertedIDs.Lookup(%v) = %v, want %v", trial, q, got, want)
			}
			if c := ids.Count(qids); c != len(want) {
				t.Fatalf("trial %d: InvertedIDs.Count(%v) = %d, want %d", trial, q, c, len(want))
			}
			gotC := comp.Lookup(qids)
			if !u32Equal(gotC, want) {
				t.Fatalf("trial %d: CompressedInvertedIDs.Lookup(%v) = %v, want %v", trial, q, gotC, want)
			}
			if c := comp.Count(qids); c != len(want) {
				t.Fatalf("trial %d: CompressedInvertedIDs.Count(%v) = %d, want %d", trial, q, c, len(want))
			}
		}
	}
}

func u32Equal(got []uint32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, v := range got {
		if int(v) != want[i] {
			return false
		}
	}
	return true
}

func TestBuildInvertedIDsParallelMatchesSequential(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(7)
	vocab := []string{"aa", "bb", "cc", "dd", "ee"}
	n := 4000 // above the minShard clamp so workers actually shard
	recs := make([]*relational.Record, n)
	for i := 0; i < n; i++ {
		doc := vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	dict := ScanDict(recs, tk)
	seq := BuildInvertedIDs(recs, tk, dict, 1)
	for _, workers := range []int{2, 4, 16} {
		par := BuildInvertedIDs(recs, tk, dict, workers)
		if !reflect.DeepEqual(seq.postings, par.postings) {
			t.Fatalf("workers=%d: posting lists differ from sequential build", workers)
		}
	}
}

// IntersectU32 properties: commutative, sorted, subset of both inputs —
// across the merge and gallop regimes — and correct when dst aliases a.
func TestIntersectU32Properties(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := sortedUniqueU32(aRaw)
		b := sortedUniqueU32(bRaw)
		ab := IntersectU32(nil, a, b)
		ba := IntersectU32(nil, b, a)
		if !reflect.DeepEqual(ab, ba) {
			return false
		}
		inA := toSetU32(a)
		inB := toSetU32(b)
		for i, v := range ab {
			if i > 0 && ab[i-1] >= v {
				return false
			}
			if !inA[v] || !inB[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectU32Gallop(t *testing.T) {
	// Long vs short list exercises the galloping branch (>16x ratio).
	long := make([]uint32, 1000)
	for i := range long {
		long[i] = uint32(2 * i)
	}
	short := []uint32{0, 3, 40, 1998, 3000}
	want := []uint32{0, 40, 1998}
	if got := IntersectU32(nil, short, long); !reflect.DeepEqual(got, want) {
		t.Fatalf("gallop intersect = %v, want %v", got, want)
	}
	if got := IntersectU32(nil, long, short); !reflect.DeepEqual(got, want) {
		t.Fatalf("gallop intersect (swapped) = %v, want %v", got, want)
	}
}

func TestIntersectU32DstAliasesA(t *testing.T) {
	// The LookupInto re-intersection pattern: result = IntersectU32(
	// result[:0], result, next). The accumulated result is never longer
	// than the next list there; replicate that contract.
	acc := []uint32{1, 3, 5, 7, 9}
	next := []uint32{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	got := IntersectU32(acc[:0], acc, next)
	want := []uint32{3, 5, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aliased intersect = %v, want %v", got, want)
	}
}

func TestLookupIntoReusesScratch(t *testing.T) {
	tk := tokenize.New()
	recs := figure1Local()
	dict := ScanDict(recs, tk)
	inv := BuildInvertedIDs(recs, tk, dict, 1)

	q1, _ := dict.Resolve([]string{"noodle", "house"})
	q2, _ := dict.Resolve([]string{"thai"})
	scratch := make([]uint32, 0, 16)
	r1 := inv.LookupInto(q1, scratch)
	if !u32Equal(r1, []int{0, 1, 3}) {
		t.Fatalf("LookupInto(noodle house) = %v", r1)
	}
	r2 := inv.LookupInto(q2, r1[:0]) // reuse the same backing array
	if !u32Equal(r2, []int{0, 2, 3}) {
		t.Fatalf("LookupInto(thai) after reuse = %v", r2)
	}
}

func TestForwardDense(t *testing.T) {
	f := NewForwardDense(3)
	f.Add(0, 10)
	f.Add(0, 11)
	f.Add(2, 10)
	if f.TotalEntries() != 3 || f.Len() != 2 {
		t.Fatalf("entries=%d live=%d, want 3/2", f.TotalEntries(), f.Len())
	}
	if got := f.List(0); !reflect.DeepEqual(got, []uint32{10, 11}) {
		t.Fatalf("List(0) = %v", got)
	}
	if got := f.Remove(0); !reflect.DeepEqual(got, []uint32{10, 11}) {
		t.Fatalf("Remove(0) = %v", got)
	}
	if f.List(0) != nil || f.TotalEntries() != 1 || f.Len() != 1 {
		t.Fatalf("post-remove state wrong: list=%v entries=%d live=%d",
			f.List(0), f.TotalEntries(), f.Len())
	}
	if got := f.Remove(1); len(got) != 0 {
		t.Fatalf("Remove(empty) = %v, want empty", got)
	}
}

func sortedUniqueU32(raw []uint8) []uint32 {
	m := map[uint32]bool{}
	for _, v := range raw {
		m[uint32(v)] = true
	}
	out := make([]uint32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func toSetU32(s []uint32) map[uint32]bool {
	m := make(map[uint32]bool, len(s))
	for _, v := range s {
		m[v] = true
	}
	return m
}
