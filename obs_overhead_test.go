// Overhead budget for the observability layer: metrics hooks ride inside
// the Algorithm-4 crawl loop and the dispatcher, so their cost must be
// invisible next to real work. BenchmarkObsOverhead is the artifact
// recorded in BENCH_obs.json; TestObsOverheadUnderTwoPercent enforces the
// <2% budget in the regular test run using interleaved min-of-N timing.
package smartcrawl_test

import (
	"io"
	"testing"

	"smartcrawl"
	"smartcrawl/internal/dataset"
)

// simUniverse is the in-process counterpart of parallelUniverse: the smart
// crawl drives the simulator directly, no HTTP and no injected latency, so
// per-hook overhead is as large a fraction of the run as it can ever be.
// Any overhead invisible here is invisible everywhere.
type simUniverse struct {
	env *smartcrawl.Env
	smp *smartcrawl.Sample
}

func newSimUniverse(tb testing.TB) *simUniverse {
	tb.Helper()
	in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
		CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tk := smartcrawl.NewTokenizer()
	db := smartcrawl.NewHiddenDatabase(in.Hidden, tk, smartcrawl.HiddenOptions{
		K: 50, RankColumn: in.RankColumn,
	})
	env := &smartcrawl.Env{
		Local:     in.Local,
		Searcher:  db,
		Tokenizer: tk,
		Matcher:   smartcrawl.NewExactMatcherOn(tk, in.LocalKey, in.HiddenKey),
	}
	return &simUniverse{env: env, smp: smartcrawl.BernoulliSample(in.Hidden, 0.03, 12)}
}

// crawl runs one budget-48 smart crawl with the given sink attached.
func (u *simUniverse) crawl(tb testing.TB, o *smartcrawl.Obs) *smartcrawl.Result {
	tb.Helper()
	u.env.Obs = o
	c, err := smartcrawl.NewSmartCrawler(u.env, smartcrawl.SmartOptions{
		Sample: u.smp, BatchSize: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := c.Run(48)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkObsOverhead times the same in-process crawl under three sinks:
// nil (disabled path — one branch per hook), live metrics, and metrics
// plus a JSONL tracer writing to io.Discard. Recorded in BENCH_obs.json.
func BenchmarkObsOverhead(b *testing.B) {
	modes := []struct {
		name string
		sink func() *smartcrawl.Obs
	}{
		{"sink=nil", func() *smartcrawl.Obs { return nil }},
		{"sink=metrics", func() *smartcrawl.Obs { return smartcrawl.NewObs() }},
		{"sink=metrics+trace", func() *smartcrawl.Obs {
			o := smartcrawl.NewObs()
			o.SetTracer(smartcrawl.NewTracer(io.Discard))
			return o
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			u := newSimUniverse(b)
			b.ResetTimer()
			var covered int
			for i := 0; i < b.N; i++ {
				res := u.crawl(b, mode.sink())
				if i == 0 {
					covered = res.CoveredCount
				} else if res.CoveredCount != covered {
					b.Fatalf("coverage drifted between iterations: %d vs %d",
						res.CoveredCount, covered)
				}
			}
			b.ReportMetric(float64(covered), "covered")
		})
	}
}

// TestObsOverheadUnderTwoPercent enforces the observability budget: the
// enabled-metrics crawl must cost at most 2% more wall-clock than the nil
// sink (plus a small absolute allowance for timer noise). Runs are
// interleaved and the minimum per mode is compared — min-of-N is robust
// to scheduling noise, which only ever slows a run down.
func TestObsOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceDetectorOn {
		t.Skip("timing budget is meaningless under the race detector")
	}
	u := newSimUniverse(t)
	// Warm both paths (index sharding, page cache) before timing.
	u.crawl(t, nil)
	u.crawl(t, smartcrawl.NewObs())

	requireOverheadBudget(t, "obs", "nil sink", "metrics",
		timed(func() { u.crawl(t, nil) }),
		timed(func() { u.crawl(t, smartcrawl.NewObs()) }))
}
