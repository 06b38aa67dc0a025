package index

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// figure1Local reproduces the local database of the paper's Figure 1(a).
func figure1Local() []*relational.Record {
	names := []string{
		"Thai Noodle House",
		"Saigon Noodle House",
		"Thai House",
		"Thai Noodle House Express", // d4-like: shares thai/noodle/house
	}
	recs := make([]*relational.Record, len(names))
	for i, n := range names {
		recs[i] = &relational.Record{ID: i, Values: []string{n}}
	}
	return recs
}

// figure1Index indexes the Figure 1 records under their own dictionary.
func figure1Index(tk *tokenize.Tokenizer) (*InvertedIDs, *tokenize.Dict) {
	recs := figure1Local()
	dict := ScanDict(recs, tk)
	return BuildInvertedIDs(recs, tk, dict, 1), dict
}

func TestLookupConjunctive(t *testing.T) {
	tk := tokenize.New()
	inv, dict := figure1Index(tk)

	cases := []struct {
		q    []string
		want []int
	}{
		{[]string{"house"}, []int{0, 1, 2, 3}},
		{[]string{"noodle", "house"}, []int{0, 1, 3}},
		{[]string{"thai"}, []int{0, 2, 3}},
		{[]string{"thai", "noodle", "house"}, []int{0, 3}},
		{[]string{"saigon"}, []int{1}},
		{[]string{"missing"}, nil},
		{[]string{"thai", "missing"}, nil},
		{nil, nil},
	}
	for _, c := range cases {
		qids, ok := dict.Resolve(c.q)
		if !ok {
			// A keyword outside the vocabulary matches nothing.
			if c.want != nil {
				t.Errorf("Resolve(%v) failed, want matches %v", c.q, c.want)
			}
			continue
		}
		if got := inv.Lookup(qids); !u32Equal(got, c.want) {
			t.Errorf("Lookup(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := inv.Count(qids); got != len(c.want) {
			t.Errorf("Count(%v) = %d, want %d", c.q, got, len(c.want))
		}
	}
}

func TestDocFreqAndVocabulary(t *testing.T) {
	tk := tokenize.New()
	inv, dict := figure1Index(tk)
	if inv.Size() != 4 {
		t.Fatalf("Size = %d", inv.Size())
	}
	house, _ := dict.ID("house")
	if got := inv.DocFreq(house); got != 4 {
		t.Fatalf("DocFreq(house) = %d", got)
	}
	if got := inv.DocFreq(uint32(dict.Len())); got != 0 {
		t.Fatalf("DocFreq(unknown ID) = %d", got)
	}
	// vocabulary: thai, noodle, house, saigon, express
	if got := dict.Len(); got != 5 {
		t.Fatalf("vocabulary size = %d", got)
	}
}

func TestPostingsSortedUnique(t *testing.T) {
	tk := tokenize.New()
	// Records given out of ID order with duplicate tokens inside one doc.
	recs := []*relational.Record{
		{ID: 5, Values: []string{"alpha beta alpha"}},
		{ID: 1, Values: []string{"alpha"}},
		{ID: 3, Values: []string{"beta alpha"}},
	}
	dict := ScanDict(recs, tk)
	inv := BuildInvertedIDs(recs, tk, dict, 1)
	alpha, _ := dict.ID("alpha")
	if p := inv.Postings(alpha); !reflect.DeepEqual(p, []uint32{1, 3, 5}) {
		t.Fatalf("postings = %v", p)
	}
	if got := inv.DocFreq(alpha); got != 3 {
		t.Fatalf("DocFreq(alpha) = %d", got)
	}
}

// bruteForceLookup is the reference for every conjunctive lookup: the
// sorted IDs of records whose token set holds every keyword of q.
func bruteForceLookup(recs []*relational.Record, tk *tokenize.Tokenizer, q []string) []int {
	var want []int
	for _, r := range recs {
		set := tk.Set(r.Document())
		ok := true
		for _, w := range q {
			if _, in := set[w]; !in {
				ok = false
				break
			}
		}
		if ok {
			want = append(want, r.ID)
		}
	}
	sort.Ints(want)
	return want
}

// Property: Lookup agrees with a brute-force scan over random corpora.
func TestLookupMatchesBruteForce(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(99)
	vocab := []string{"aa", "bb", "cc", "dd", "ee", "ff"}

	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		recs := make([]*relational.Record, n)
		for i := 0; i < n; i++ {
			k := 1 + rng.Intn(4)
			doc := ""
			for j := 0; j < k; j++ {
				doc += vocab[rng.Intn(len(vocab))] + " "
			}
			recs[i] = &relational.Record{ID: i, Values: []string{doc}}
		}
		dict := ScanDict(recs, tk)
		inv := BuildInvertedIDs(recs, tk, dict, 1)

		qlen := 1 + rng.Intn(3)
		q := make([]string, qlen)
		for j := range q {
			q[j] = vocab[rng.Intn(len(vocab))]
		}

		want := bruteForceLookup(recs, tk, q)
		var got []uint32
		if qids, ok := dict.Resolve(q); ok {
			got = inv.Lookup(qids)
		}
		if !u32Equal(got, want) {
			t.Fatalf("trial %d: Lookup(%v) = %v, want %v", trial, q, got, want)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	tk := tokenize.New()
	recs := zipfRecords(20000)
	dict := ScanDict(recs, tk)
	inv := BuildInvertedIDs(recs, tk, dict, 1)
	q, _ := dict.Resolve([]string{"w0", "w3"})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inv.Lookup(q)
	}
}

// zipfRecords builds n records of eight Zipf-distributed keywords each
// over a 2000-word vocabulary, the lookup benchmarks' corpus.
func zipfRecords(n int) []*relational.Record {
	rng := stats.NewRNG(1)
	zipf := stats.NewZipf(rng, 1.0, 2000)
	recs := make([]*relational.Record, n)
	for i := range recs {
		doc := ""
		for j := 0; j < 8; j++ {
			doc += fmt.Sprintf("w%d ", zipf.Draw())
		}
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	return recs
}

// syntheticRecords builds n records with Zipf-ish random keyword documents,
// large enough to clear the parallel build's minimum shard size.
func syntheticRecords(n int) []*relational.Record {
	rng := stats.NewRNG(99)
	vocab := make([]string, 300)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%03d", i)
	}
	recs := make([]*relational.Record, n)
	for i := range recs {
		m := 2 + rng.Intn(6)
		words := make([]string, m)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		// Shuffled IDs: the defensive sort, not arrival order, must
		// guarantee sorted postings.
		recs[i] = &relational.Record{ID: i, Values: words}
	}
	rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// TestBuildInvertedNMatchesSequential: the sharded build must produce
// posting lists identical to the sequential one for any worker count,
// including counts the clamp reduces (tiny input, absurd workers). The
// records arrive in shuffled ID order, so the sequential postings must
// come out sorted too.
func TestBuildInvertedNMatchesSequential(t *testing.T) {
	tk := tokenize.New()
	recs := syntheticRecords(2048)
	dict := ScanDict(recs, tk)
	ref := BuildInvertedIDs(recs, tk, dict, 1)
	for id, p := range ref.postings {
		if !slices.IsSorted(p) {
			t.Fatalf("token %d: sequential postings not sorted: %v", id, p)
		}
	}
	for _, workers := range []int{2, 4, 8, 64} {
		got := BuildInvertedIDs(recs, tk, dict, workers)
		if got.Size() != ref.Size() || len(got.postings) != len(ref.postings) {
			t.Fatalf("workers=%d: size/vocab %d/%d, want %d/%d",
				workers, got.Size(), len(got.postings), ref.Size(), len(ref.postings))
		}
		if !reflect.DeepEqual(got.postings, ref.postings) {
			t.Fatalf("workers=%d: postings diverged from sequential build", workers)
		}
	}
	// Tiny input: clamp forces the sequential path; must still be correct.
	small := figure1Local()
	sd := ScanDict(small, tk)
	if !reflect.DeepEqual(BuildInvertedIDs(small, tk, sd, 8).postings, BuildInvertedIDs(small, tk, sd, 1).postings) {
		t.Fatal("clamped parallel build diverged on tiny input")
	}
}
