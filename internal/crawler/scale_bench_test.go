package crawler

// Out-of-core scale benchmarks (BENCH_scale.json): the BENCH_hotpath
// workload at 10× corpus size, driven through the external-memory path —
// streaming ingestion into the corpus cache, sampled pool build with
// exact recounting against the mapped index, and the selection-loop
// drain resolving q(D) through memory-mapped posting blocks. Each
// benchmark reports a heap-peak-MB metric (sampled HeapAlloc high-water
// mark) alongside ns/op, and TestScaleMemoryCeiling pins the mapped
// path's heap growth under a fixed budget.
//
// `make bench-scale` runs these; the recorded table lives in
// BENCH_scale.json.

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smartcrawl/internal/dataset"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/index"
	"smartcrawl/internal/match"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// scalePoolSample is the reservoir size of the sampled pool build at 10×
// scale: 20% of the local table, the regime the recall bound was
// validated in (TestGenerateSampledExactSupports).
const scalePoolSample = 3000

// scalePoolConfig keeps the pool density of benchPoolConfig at 10× the
// records: a support threshold is relative to corpus size, so MinSupport
// scales with it (2 at |D|=1500 → 20 at |D|=15000). Keeping the absolute
// threshold would floor the sample-scaled support at 1 and turn FP-Growth
// into full enumeration — the regime sampling exists to avoid.
func scalePoolConfig() querypool.Config {
	return querypool.Config{MinSupport: 20, MaxQueryLen: 3}
}

// scaleUniverse is the 10× BENCH_hotpath workload plus its corpus cache,
// generated once per test process: building the 200k-record instance and
// its on-disk index takes seconds, and every scale benchmark shares it
// read-only.
var scaleShared struct {
	once sync.Once
	u    *benchUniverse
	cf   *index.CorpusFile
	err  error
}

func scaleUniverse(tb testing.TB) (*benchUniverse, *index.CorpusFile) {
	tb.Helper()
	scaleShared.once.Do(func() {
		in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
			CorpusSize: 200000,
			HiddenSize: 50000,
			LocalSize:  15000,
			Seed:       7,
		})
		if err != nil {
			scaleShared.err = err
			return
		}
		tk := tokenize.New()
		scaleShared.u = &benchUniverse{
			in:  in,
			tk:  tk,
			m:   match.NewExactOn(tk, in.LocalKey, in.HiddenKey),
			smp: sample.Bernoulli(in.Hidden, 0.05, stats.NewRNG(7)),
			k:   100,
		}
		dir, err := os.MkdirTemp("", "smartcrawl-scale-bench-")
		if err != nil {
			scaleShared.err = err
			return
		}
		defer os.RemoveAll(dir) // the mapping outlives the unlinked file
		path := filepath.Join(dir, "scale.scorp")
		b := index.NewCorpusBuilder(index.IngestConfig{TmpDir: dir})
		for id, r := range in.Local.Records {
			if err := b.AddRecord(id, r.Tokens(tk)); err != nil {
				scaleShared.err = err
				return
			}
		}
		if err := b.Finalize(path); err != nil {
			scaleShared.err = err
			return
		}
		scaleShared.cf, scaleShared.err = index.OpenCorpus(path)
	})
	if scaleShared.err != nil {
		tb.Fatal(scaleShared.err)
	}
	return scaleShared.u, scaleShared.cf
}

// heapWatch samples runtime.HeapAlloc in the background and records the
// high-water mark — a portable stand-in for peak RSS that responds to
// the benchmark's own allocations rather than the process lifetime.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
	base uint64
}

func watchHeap() *heapWatch {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := &heapWatch{stop: make(chan struct{}), base: ms.HeapAlloc}
	h.peak.Store(ms.HeapAlloc)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if a := ms.HeapAlloc; a > h.peak.Load() {
					h.peak.Store(a)
				}
			}
		}
	}()
	return h
}

// end stops sampling and returns (peak, peak−baseline) in MiB.
func (h *heapWatch) end() (peakMB, growthMB float64) {
	close(h.stop)
	h.wg.Wait()
	p := h.peak.Load()
	return float64(p) / (1 << 20), float64(p-h.base) / (1 << 20)
}

// newScaleSelState is newBenchSelState over the mapped corpus: pool
// generation reuses the cache dictionary, mines a reservoir sample with
// exact support recounting against the mapped index, and selection
// resolves q(D) through the mapped posting blocks.
func newScaleSelState(u *benchUniverse, cf *index.CorpusFile) *benchSelState {
	cfg := scalePoolConfig()
	cfg.Dict = cf.Dict
	cfg.SampleSize = scalePoolSample
	cfg.SampleSeed = 7
	cfg.Index = cf.Inv
	pool := querypool.Generate(u.in.Local, u.tk, cfg)
	env := &Env{Local: u.in.Local, Tokenizer: u.tk, Matcher: u.m, Corpus: cf}
	joiner := match.NewJoiner(u.in.Local.Records, u.tk, u.m)

	s := &benchSelState{theta: u.smp.Theta, k: u.k, est: estimator.Biased{}}
	s.sel = newSelection(env, pool, selectionStats{smp: u.smp, joiner: joiner}, 1, 1, s.benefit)
	return s
}

// BenchmarkScaleIngest measures streaming ingestion into the corpus
// cache at 1× and 10× input, with the spill buffer pinned small enough
// that the 10× build goes external — the heap-peak-MB metric must stay
// flat across the two sizes (bounded by the buffer, not the corpus).
func BenchmarkScaleIngest(b *testing.B) {
	u, _ := scaleUniverse(b)
	// Pre-tokenize outside the timed loop so the metric isolates the
	// sort/spill/merge pipeline, and the token slices (which scale with
	// input size) don't drown the bounded buffer in the heap watch.
	tokens := make([][]string, len(u.in.Local.Records))
	for id, r := range u.in.Local.Records {
		tokens[id] = r.Tokens(u.tk)
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"1x", 1500}, {"10x", 15000}} {
		b.Run(size.name, func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			w := watchHeap()
			b.ResetTimer()
			spills := 0
			for i := 0; i < b.N; i++ {
				path := filepath.Join(dir, "bench.scorp")
				bl := index.NewCorpusBuilder(index.IngestConfig{
					TmpDir:              dir,
					MaxBufferedPostings: 1 << 14,
				})
				for id := 0; id < size.n; id++ {
					if err := bl.AddRecord(id, tokens[id]); err != nil {
						b.Fatal(err)
					}
				}
				spills = bl.Spills()
				if err := bl.Finalize(path); err != nil {
					b.Fatal(err)
				}
				os.Remove(path)
			}
			b.StopTimer()
			peak, _ := w.end()
			b.ReportMetric(peak, "heap-peak-MB")
			b.ReportMetric(float64(spills), "spill-runs")
		})
	}
}

// BenchmarkScalePoolBuild measures the sampled pool build at 10×: FP-
// Growth over the reservoir, then exact support recounting against the
// mapped index in one batch. The full-corpus mining it replaces is the
// "full" cell.
func BenchmarkScalePoolBuild(b *testing.B) {
	u, cf := scaleUniverse(b)
	b.Run("sampled", func(b *testing.B) {
		b.ReportAllocs()
		w := watchHeap()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := scalePoolConfig()
			cfg.Dict = cf.Dict
			cfg.SampleSize = scalePoolSample
			cfg.SampleSeed = 7
			cfg.Index = cf.Inv
			if pool := querypool.Generate(u.in.Local, u.tk, cfg); pool.Len() == 0 {
				b.Fatal("empty pool")
			}
		}
		b.StopTimer()
		peak, _ := w.end()
		b.ReportMetric(peak, "heap-peak-MB")
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		w := watchHeap()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pool := querypool.Generate(u.in.Local, u.tk, scalePoolConfig()); pool.Len() == 0 {
				b.Fatal("empty pool")
			}
		}
		b.StopTimer()
		peak, _ := w.end()
		b.ReportMetric(peak, "heap-peak-MB")
	})
}

// BenchmarkScaleSelectionLoop measures the full selection-loop drain at
// 10× with q(D) resolved through the mapped index — the acceptance bar
// is ns/op-per-record within 2× of BenchmarkSelectionLoop's in-memory
// figure at 1×.
func BenchmarkScaleSelectionLoop(b *testing.B) {
	u, cf := scaleUniverse(b)
	b.ReportAllocs()
	w := watchHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := newScaleSelState(u, cf)
		b.StartTimer()
		drained := 0
		for {
			qid, _, ok := st.pop()
			if !ok {
				break
			}
			st.cover(qid)
			drained++
		}
		if drained == 0 {
			b.Fatal("selection loop drained nothing")
		}
	}
	b.StopTimer()
	peak, _ := w.end()
	b.ReportMetric(peak, "heap-peak-MB")
}

// TestScaleMemoryCeiling guards the out-of-core contract: at 10× corpus,
// building the sampled pool and draining the selection loop over the
// mapped index must not grow the heap by more than scaleHeapBudgetMB
// beyond the dataset itself. The in-memory path at this scale holds the
// full inverted index and per-query posting copies on the heap; the
// mapped path's growth is the selection state alone.
func TestScaleMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("10× corpus build in -short mode")
	}
	const scaleHeapBudgetMB = 256
	u, cf := scaleUniverse(t)
	w := watchHeap()
	st := newScaleSelState(u, cf)
	drained := 0
	for {
		qid, _, ok := st.pop()
		if !ok {
			break
		}
		st.cover(qid)
		drained++
	}
	_, growth := w.end()
	if drained == 0 {
		t.Fatal("selection loop drained nothing")
	}
	t.Logf("mapped selection at 10×: %d queries drained, heap growth %.1f MB (budget %d MB)", drained, growth, scaleHeapBudgetMB)
	if growth > scaleHeapBudgetMB {
		t.Fatalf("mapped selection heap growth %.1f MB exceeds the %d MB budget", growth, scaleHeapBudgetMB)
	}
}
