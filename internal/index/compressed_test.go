package index

import (
	"fmt"
	"reflect"
	"testing"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func TestCompressedMatchesPlain(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(5)
	vocab := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg"}
	recs := make([]*relational.Record, 500)
	for i := range recs {
		doc := ""
		for j := 0; j < 1+rng.Intn(5); j++ {
			doc += vocab[rng.Intn(len(vocab))] + " "
		}
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	dict := ScanDict(recs, tk)
	plain := BuildInvertedIDs(recs, tk, dict, 1)
	comp := BuildCompressedInvertedIDs(recs, tk, dict)

	if comp.Size() != plain.Size() {
		t.Fatalf("size mismatch: %d vs %d", comp.Size(), plain.Size())
	}
	ids := make([]uint32, dict.Len())
	for i := range ids {
		ids[i] = uint32(i)
		if comp.DocFreq(ids[i]) != plain.DocFreq(ids[i]) {
			t.Fatalf("DocFreq(%s): %d vs %d", dict.Word(ids[i]), comp.DocFreq(ids[i]), plain.DocFreq(ids[i]))
		}
	}
	// All 1-, 2-, and 3-keyword queries, plus an ID outside the
	// vocabulary and the empty query.
	var queries [][]uint32
	for i, a := range ids {
		queries = append(queries, []uint32{a})
		for j := i + 1; j < len(ids); j++ {
			queries = append(queries, []uint32{a, ids[j]})
			for l := j + 1; l < len(ids); l++ {
				queries = append(queries, []uint32{a, ids[j], ids[l]})
			}
		}
	}
	missing := uint32(dict.Len())
	queries = append(queries, []uint32{missing}, []uint32{0, missing}, nil)
	for _, q := range queries {
		want := plain.Lookup(q)
		got := comp.Lookup(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%v): %v vs %v", q, got, want)
		}
		if comp.Count(q) != plain.Count(q) {
			t.Fatalf("Count(%v) mismatch", q)
		}
	}
}

func TestCompressedSavesSpace(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(9)
	zipf := stats.NewZipf(rng, 1.0, 500)
	recs := make([]*relational.Record, 20000)
	for i := range recs {
		doc := ""
		for j := 0; j < 6; j++ {
			doc += fmt.Sprintf("w%03d ", zipf.Draw())
		}
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	dict := ScanDict(recs, tk)
	comp := BuildCompressedInvertedIDs(recs, tk, dict)
	plain := BuildInvertedIDs(recs, tk, dict, 1)
	plainBytes := 0
	for _, p := range plain.postings {
		plainBytes += 4 * len(p) // uint32 slice storage
	}
	ratio := float64(comp.Bytes()) / float64(plainBytes)
	t.Logf("compressed %d bytes vs plain %d bytes (ratio %.2f)", comp.Bytes(), plainBytes, ratio)
	if ratio > 0.35 {
		t.Fatalf("compression ratio %.2f — d-gap varints should cut ≥ 65%% of uint32 postings on this workload", ratio)
	}
}

func TestCompressedEmptyAndSingleton(t *testing.T) {
	tk := tokenize.New()
	comp := BuildCompressedInvertedIDs(nil, tk, ScanDict(nil, tk))
	if comp.Lookup([]uint32{0}) != nil || comp.Size() != 0 {
		t.Fatal("empty index")
	}
	recs := []*relational.Record{{ID: 7, Values: []string{"solo token"}}}
	dict := ScanDict(recs, tk)
	one := BuildCompressedInvertedIDs(recs, tk, dict)
	solo, _ := dict.Resolve([]string{"solo"})
	if got := one.Lookup(solo); !reflect.DeepEqual(got, []uint32{7}) {
		t.Fatalf("singleton lookup = %v", got)
	}
	both, _ := dict.Resolve([]string{"solo", "token"})
	if got := one.Lookup(both); !reflect.DeepEqual(got, []uint32{7}) {
		t.Fatalf("two-keyword singleton lookup = %v", got)
	}
}

// TestCompressedCountAllocsFlat: Count counts matches instead of
// collecting them, so its allocations do not grow with the match count.
// Both queries walk two 5 000-entry lists block by block; one
// intersection is complete, the other holds a single record.
func TestCompressedCountAllocsFlat(t *testing.T) {
	tk := tokenize.New()
	recs := make([]*relational.Record, 10000)
	for i := range recs {
		doc := "odd"
		if i%2 == 0 {
			doc = "even pair"
		}
		if i == 1 {
			doc += " pair"
		}
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	dict := ScanDict(recs, tk)
	comp := BuildCompressedInvertedIDs(recs, tk, dict)
	many, _ := dict.Resolve([]string{"even", "pair"})
	few, _ := dict.Resolve([]string{"odd", "pair"})
	if got := comp.Count(many); got != 5000 {
		t.Fatalf("Count(even pair) = %d, want 5000", got)
	}
	if got := comp.Count(few); got != 1 {
		t.Fatalf("Count(odd pair) = %d, want 1", got)
	}
	allocsMany := testing.AllocsPerRun(20, func() { comp.Count(many) })
	allocsFew := testing.AllocsPerRun(20, func() { comp.Count(few) })
	if allocsMany > allocsFew {
		t.Fatalf("Count allocates %.0f times for 5000 matches but %.0f for 1: allocations grow with the match count",
			allocsMany, allocsFew)
	}
}

func BenchmarkCompressedLookup(b *testing.B) {
	tk := tokenize.New()
	recs := zipfRecords(20000)
	dict := ScanDict(recs, tk)
	inv := BuildCompressedInvertedIDs(recs, tk, dict)
	q, _ := dict.Resolve([]string{"w0", "w3"})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inv.Lookup(q)
	}
}
