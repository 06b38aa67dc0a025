package querypool

import (
	"fmt"
	"testing"

	"smartcrawl/internal/freqmine"
	"smartcrawl/internal/index"
	"smartcrawl/internal/tokenize"
)

// TestSampledPoolIsClosedAndExact pins the sampled pool's precision: every
// mined query of a sampled pool is a closed frequent query of the full
// pool, with its exact support. That holds by construction — whenever a
// sample record holds X it holds every equal-support superset of X, so
// such a superset is mined and recounted alongside X and dominates it in
// the sampled collection too — and this test checks it on recount-shaped
// inputs: seeds 1–5, two sample fractions, t ∈ {2, 10}. Recall is only
// logged; it is bounded by the sample, not guaranteed.
func TestSampledPoolIsClosedAndExact(t *testing.T) {
	tk := tokenize.New()
	const n, maxLen = 1000, 3
	keyOf := func(ids []uint32) string { return fmt.Sprint(ids) }
	for seed := uint64(1); seed <= 5; seed++ {
		local := makeZipfTable(n, seed)
		dict := index.ScanDict(local.Records, tk)
		inv := index.BuildInvertedIDs(local.Records, tk, dict, 1)
		txs := transactionsUnder(dict, local.Records, tk)
		for _, minSup := range []int{2, 10} {
			// The full pool's closed frequent queries, by sorted token IDs.
			full := make(map[string]int)
			mined := freqmine.MineFPGrowth(txs, freqmine.Config{MinSupport: minSup, MaxLen: maxLen})
			for _, s := range freqmine.FilterClosed(mined) {
				ids := make([]uint32, len(s.Items))
				for i, it := range s.Items {
					ids[i] = uint32(it)
				}
				full[keyOf(ids)] = s.Support
			}
			for _, size := range []int{n / 5, n / 2} {
				p := Generate(local, tk, Config{
					MinSupport: minSup, MaxQueryLen: maxLen,
					Dict: dict, SampleSize: size, SampleSeed: seed, Index: inv,
				})
				minedQ, recalled := 0, 0
				for _, q := range p.Queries {
					sup, closed := full[keyOf(q.IDs)]
					if closed {
						recalled++
					}
					if q.Naive {
						continue
					}
					minedQ++
					if !closed {
						t.Fatalf("seed %d t=%d sample %d: mined query %v is not a closed frequent query of the full pool",
							seed, minSup, size, q.Keywords)
					}
					if exact := inv.Count(q.IDs); exact != sup {
						t.Fatalf("seed %d t=%d sample %d: %v has support %d, the full pool %d",
							seed, minSup, size, q.Keywords, exact, sup)
					}
				}
				if minedQ == 0 {
					t.Fatalf("seed %d t=%d sample %d: sampled mining found no query", seed, minSup, size)
				}
				t.Logf("seed %d t=%d sample %d/%d: %d mined queries; the pool holds %d of the full pool's %d closed queries (%.1f%%)",
					seed, minSup, size, n, minedQ, recalled, len(full), 100*float64(recalled)/float64(len(full)))
			}
		}
	}
}
