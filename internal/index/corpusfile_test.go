package index

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// corpusFixture builds a zipfy random corpus large enough to span many
// posting blocks.
func corpusFixture(n, vocabSize int, seed uint64) ([]*relational.Record, *tokenize.Tokenizer, *tokenize.Dict) {
	tk := tokenize.New()
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(rng, 1.05, vocabSize)
	recs := make([]*relational.Record, n)
	for i := range recs {
		var sb strings.Builder
		for j := 0; j < 3+rng.Intn(5); j++ {
			fmt.Fprintf(&sb, "w%04d ", zipf.Draw())
		}
		recs[i] = &relational.Record{ID: i, Values: []string{sb.String()}}
	}
	return recs, tk, ScanDict(recs, tk)
}

func allSmallQueries(d *tokenize.Dict, stride int) [][]uint32 {
	var qs [][]uint32
	for a := 0; a < d.Len(); a += stride {
		qs = append(qs, []uint32{uint32(a)})
		for b := a + stride; b < d.Len(); b += 3 * stride {
			qs = append(qs, []uint32{uint32(a), uint32(b)})
		}
	}
	return qs
}

func TestCorpusFileRoundTrip(t *testing.T) {
	recs, tk, d := corpusFixture(3000, 60, 11)
	inv := BuildCompressedInvertedIDs(recs, tk, d)
	path := filepath.Join(t.TempDir(), "corpus.scorp")
	if err := WriteCorpus(path, d, inv); err != nil {
		t.Fatalf("WriteCorpus: %v", err)
	}
	cf, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	defer cf.Close()

	if cf.Records() != len(recs) || cf.Inv.Size() != len(recs) {
		t.Fatalf("records: %d/%d, want %d", cf.Records(), cf.Inv.Size(), len(recs))
	}
	if cf.Dict.Len() != d.Len() {
		t.Fatalf("vocab: %d, want %d", cf.Dict.Len(), d.Len())
	}
	for id := 0; id < d.Len(); id++ {
		if cf.Dict.Word(uint32(id)) != d.Word(uint32(id)) {
			t.Fatalf("word %d: %q vs %q", id, cf.Dict.Word(uint32(id)), d.Word(uint32(id)))
		}
		if cf.Inv.DocFreq(uint32(id)) != inv.DocFreq(uint32(id)) {
			t.Fatalf("DocFreq(%d) mismatch", id)
		}
	}
	for _, q := range allSmallQueries(d, 1) {
		want := inv.Lookup(q)
		got := cf.Inv.Lookup(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%v): %v vs %v", q, got, want)
		}
		if cf.Inv.Count(q) != len(want) {
			t.Fatalf("Count(%v): %d vs %d", q, cf.Inv.Count(q), len(want))
		}
	}
}

// The external-sort builder must produce a byte-identical cache whether
// it spills dozens of runs or none — and identical to serializing the
// in-memory index.
func TestCorpusBuilderMatchesInMemory(t *testing.T) {
	recs, tk, d := corpusFixture(4000, 80, 23)
	inv := BuildCompressedInvertedIDs(recs, tk, d)
	dir := t.TempDir()

	memPath := filepath.Join(dir, "mem.scorp")
	if err := WriteCorpus(memPath, d, inv); err != nil {
		t.Fatalf("WriteCorpus: %v", err)
	}
	want, err := os.ReadFile(memPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, budget := range []int{0, 1024} { // 0 = default (no spills here)
		b := NewCorpusBuilder(IngestConfig{TmpDir: dir, MaxBufferedPostings: budget})
		for _, r := range recs {
			if err := b.AddRecord(r.ID, r.Tokens(tk)); err != nil {
				t.Fatalf("AddRecord: %v", err)
			}
		}
		if budget > 0 && b.Spills() == 0 {
			t.Fatalf("budget %d produced no spill runs (fixture too small?)", budget)
		}
		p := filepath.Join(dir, fmt.Sprintf("ext%d.scorp", budget))
		if err := b.Finalize(p); err != nil {
			t.Fatalf("Finalize(budget=%d): %v", budget, err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("budget %d: cache differs from in-memory serialization (%d vs %d bytes)",
				budget, len(got), len(want))
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.spill")); len(left) != 0 {
		t.Fatalf("spill runs not cleaned up: %v", left)
	}
}

func TestCorpusFileRejectsCorruption(t *testing.T) {
	recs, tk, d := corpusFixture(800, 30, 7)
	inv := BuildCompressedInvertedIDs(recs, tk, d)
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.scorp")
	if err := WriteCorpus(path, d, inv); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reopen := func(name string, mutate func([]byte) []byte) error {
		b := mutate(append([]byte(nil), orig...))
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		cf, err := OpenCorpus(p)
		if err == nil {
			cf.Close()
		}
		return err
	}

	if err := reopen("magic", func(b []byte) []byte { b[0] ^= 0xff; return b }); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := reopen("trunc", func(b []byte) []byte { return b[:len(b)-5] }); err == nil {
		t.Fatal("truncated file accepted")
	}
	if err := reopen("data", func(b []byte) []byte { b[corpusHeaderSize+200] ^= 0x10; return b }); err == nil {
		t.Fatal("flipped data byte accepted")
	}
	if err := reopen("tail", func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b }); err == nil {
		t.Fatal("flipped meta byte accepted")
	}
}

// Block-boundary coverage: posting lists exactly at blockSize−1 / blockSize
// / blockSize+1, empty and single-element lists, and an intersection whose
// rare list straddles a block seam.
func TestCompressedBlockBoundaries(t *testing.T) {
	// Dictionary includes "ee" with no postings at all.
	d := tokenize.BuildDict([]string{"aa", "bb", "cc", "dd", "ee", "ff", "gg"})
	tok := map[string][]uint32{}
	for i := uint32(0); i < PostingBlockSize-1; i++ {
		tok["aa"] = append(tok["aa"], i)
	}
	for i := uint32(0); i < PostingBlockSize; i++ {
		tok["bb"] = append(tok["bb"], i)
	}
	for i := uint32(0); i < PostingBlockSize+1; i++ {
		tok["cc"] = append(tok["cc"], i)
	}
	tok["dd"] = []uint32{5}
	// ff: every even record up to 400 (4 blocks); gg: a narrow window that
	// straddles ff's first block seam when intersected.
	for i := uint32(0); i < 400; i += 2 {
		tok["ff"] = append(tok["ff"], i)
	}
	for i := uint32(PostingBlockSize*2 - 20); i < PostingBlockSize*2+20; i++ {
		tok["gg"] = append(tok["gg"], i)
	}

	// Materialize records carrying exactly those tokens.
	n := 0
	for _, ids := range tok {
		for _, r := range ids {
			if int(r) >= n {
				n = int(r) + 1
			}
		}
	}
	docs := make([]string, n)
	for w, ids := range tok {
		for _, r := range ids {
			docs[r] += w + " "
		}
	}
	tk := tokenize.New()
	recs := make([]*relational.Record, n)
	for i := range recs {
		recs[i] = &relational.Record{ID: i, Values: []string{docs[i]}}
	}
	inv := BuildCompressedInvertedIDs(recs, tk, d)

	id := func(w string) uint32 {
		v, ok := d.ID(w)
		if !ok {
			t.Fatalf("missing dict word %s", w)
		}
		return v
	}
	for w, want := range tok {
		if got := inv.DocFreq(id(w)); got != len(want) {
			t.Fatalf("DocFreq(%s) = %d, want %d", w, got, len(want))
		}
		if got := inv.Lookup([]uint32{id(w)}); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%s) mismatch: %d ids vs %d", w, len(got), len(want))
		}
	}
	if got := inv.Lookup([]uint32{id("ee")}); len(got) != 0 {
		t.Fatalf("empty posting list returned %v", got)
	}
	if got := inv.Count([]uint32{id("ee"), id("aa")}); got != 0 {
		t.Fatalf("intersection with empty list = %d", got)
	}
	if got := inv.Lookup([]uint32{id("cc"), id("dd")}); !reflect.DeepEqual(got, []uint32{5}) {
		t.Fatalf("cc∧dd = %v, want [5]", got)
	}
	if got := inv.Lookup([]uint32{id("aa"), id("bb"), id("cc")}); len(got) != PostingBlockSize-1 {
		t.Fatalf("aa∧bb∧cc = %d ids, want %d", len(got), PostingBlockSize-1)
	}
	var want []uint32
	for i := uint32(PostingBlockSize*2 - 20); i < PostingBlockSize*2+20; i += 2 {
		want = append(want, i)
	}
	if got := inv.Lookup([]uint32{id("ff"), id("gg")}); !reflect.DeepEqual(got, want) {
		t.Fatalf("seam intersection = %v, want %v", got, want)
	}
	if got := inv.Count([]uint32{id("ff"), id("gg")}); got != len(want) {
		t.Fatalf("seam Count = %d, want %d", got, len(want))
	}
}

// FuzzPostingBlockRoundTrip: decode(encode(x)) == x for arbitrary sorted
// ID sets, and a one-byte corruption anywhere in the payload is either
// detected or harmless — a corrupt block may never silently decode to a
// different (e.g. truncated) posting list.
func FuzzPostingBlockRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(0))
	f.Add([]byte{0, 0, 1, 255, 254, 253, 7}, uint16(3))
	f.Add(bytes.Repeat([]byte{9, 8, 7, 6, 5}, 60), uint16(100))
	f.Fuzz(func(t *testing.T, raw []byte, flip uint16) {
		ids := sortedUniqueU32(raw)
		if len(ids) == 0 {
			return
		}
		data, skips := appendPostingBlocks(nil, nil, ids)
		var got, buf []uint32
		for _, sk := range skips {
			var err error
			buf, err = decodePostingBlock(buf, data, sk)
			if err != nil {
				t.Fatalf("clean decode failed: %v", err)
			}
			got = append(got, buf...)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("round trip: %v -> %v", ids, got)
		}
		if len(data) == 0 {
			return
		}
		pos := int(flip) % len(data)
		data[pos] ^= 1 << (flip % 8)
		var corrupted []uint32
		failed := false
		for _, sk := range skips {
			b, err := decodePostingBlock(nil, data, sk)
			if err != nil {
				failed = true
				break
			}
			corrupted = append(corrupted, b...)
		}
		if !failed && !reflect.DeepEqual(corrupted, ids) {
			t.Fatalf("corruption at byte %d decoded silently to different ids:\n  %v\nvs %v",
				pos, corrupted, ids)
		}
	})
}
