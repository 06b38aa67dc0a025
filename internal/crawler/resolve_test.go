package crawler

import (
	"path/filepath"
	"reflect"
	"testing"

	"smartcrawl/internal/dataset"
	"smartcrawl/internal/index"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/tokenize"
)

// TestBatchResolutionMatchesPerQuery pins the batch resolver to the
// per-query path it replaced, on a toy sampled pool: the pool recounted
// in one index.CountBatch has the contents and order of the pool
// recounted one Count at a time, and every q(D) newSelection resolves in
// one index.ResolveBatch equals per-query Lookup — on the in-memory and
// the mapped index, at workers 1, 2 and 4.
func TestBatchResolutionMatchesPerQuery(t *testing.T) {
	in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
		CorpusSize: 8000, HiddenSize: 2000, LocalSize: 800, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk := tokenize.New()
	dict := index.ScanDict(in.Local.Records, tk)
	plain := index.BuildInvertedIDs(in.Local.Records, tk, dict, 1)
	path := filepath.Join(t.TempDir(), "toy.scorp")
	if err := index.WriteCorpus(path, dict, index.BuildCompressedInvertedIDs(in.Local.Records, tk, dict)); err != nil {
		t.Fatal(err)
	}
	cf, err := index.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()

	base := querypool.Config{MinSupport: 2, MaxQueryLen: 3, Dict: dict, SampleSize: 300, SampleSeed: 5}
	refCfg := base
	refCfg.Count = plain.Count
	ref := querypool.Generate(in.Local, tk, refCfg)
	// Enough queries for every worker to get a chunk of its own.
	if ref.Len() < 4096 {
		t.Fatalf("toy pool has %d queries; the test needs at least 4096", ref.Len())
	}
	backings := []struct {
		name   string
		src    index.PostingSource
		corpus *index.CorpusFile
	}{{"in-memory", plain, nil}, {"mapped", cf.Inv, cf}}
	for _, workers := range []int{1, 2, 4} {
		for _, b := range backings {
			cfg := base
			cfg.Workers, cfg.Index = workers, b.src
			pool := querypool.Generate(in.Local, tk, cfg)
			if !reflect.DeepEqual(pool.Queries, ref.Queries) {
				t.Fatalf("%s workers %d: batch-recounted pool differs from the per-query one (%d vs %d queries)",
					b.name, workers, pool.Len(), ref.Len())
			}
			env := &Env{Local: in.Local, Tokenizer: tk, Corpus: b.corpus}
			sel := newSelection(env, pool, selectionStats{}, workers, 1, func(*qstate) float64 { return 0 })
			for _, q := range pool.Queries {
				want, st := plain.Lookup(q.IDs), sel.states[q.ID]
				switch {
				case len(want) == 0 && st != nil:
					t.Fatalf("%s workers %d: %v matches nothing but has a state", b.name, workers, q.Keywords)
				case len(want) == 0:
				case st == nil || !reflect.DeepEqual(st.qD, want) || st.freqD != len(want):
					t.Fatalf("%s workers %d: q(D) of %v differs from Lookup", b.name, workers, q.Keywords)
				}
			}
		}
	}
}
