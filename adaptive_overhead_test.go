// Overhead budget for the adaptive-resilience layer: the deadline is
// threaded through every dispatch as a context, the retry budget takes a
// deposit on every absorbed query, and resilient bookkeeping rides the
// merge stage — all on the hot path of a crawl where nothing ever fails.
// BenchmarkAdaptiveOverhead is the artifact recorded in
// BENCH_adaptive.json; TestAdaptiveOverheadUnderTwoPercent enforces the
// <2% budget in the regular test run using the same interleaved min-of-N
// scheme as the observability, durability, and federation budget tests.
package smartcrawl_test

import (
	"testing"
	"time"

	"smartcrawl"
)

// crawlAdaptive runs the same budget-48 crawl as simUniverse.crawl with
// the adaptive knobs engaged: a generous never-expiring crawl deadline, a
// per-query timeout, and a retry budget. On this clean simulator none of
// them ever fires — this measures pure plumbing cost.
func (u *simUniverse) crawlAdaptive(tb testing.TB) *smartcrawl.Result {
	tb.Helper()
	u.env.Obs = nil
	c, err := smartcrawl.NewSmartCrawler(u.env, smartcrawl.SmartOptions{
		Sample:       u.smp,
		BatchSize:    8,
		Deadline:     5 * time.Minute,
		QueryTimeout: 30 * time.Second,
		RetryBudget:  0.1,
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

// BenchmarkAdaptiveOverhead times the same in-process crawl built two
// ways: plain, and with deadline + query timeout + retry budget engaged.
// Coverage must be identical — on a clean run the adaptive machinery is
// invisible by design. Recorded in BENCH_adaptive.json.
func BenchmarkAdaptiveOverhead(b *testing.B) {
	modes := []struct {
		name string
		run  func(u *simUniverse) *smartcrawl.Result
	}{
		{"mode=plain", func(u *simUniverse) *smartcrawl.Result { return u.crawl(b, nil) }},
		{"mode=adaptive", func(u *simUniverse) *smartcrawl.Result { return u.crawlAdaptive(b) }},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			u := newSimUniverse(b)
			b.ResetTimer()
			var covered int
			for i := 0; i < b.N; i++ {
				res := mode.run(u)
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

// TestAdaptiveOverheadUnderTwoPercent enforces the adaptive budget: the
// deadline/timeout/retry-budget crawl must cost at most 2% more
// wall-clock than the plain construction (plus a small absolute allowance
// for timer noise), and must cover exactly the same records — the clean
// run may not even be able to tell the knobs are on.
func TestAdaptiveOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceDetectorOn {
		t.Skip("timing budget is meaningless under the race detector")
	}
	u := newSimUniverse(t)
	// Warm both paths before timing, and pin the coverage equivalence
	// while at it.
	plain := u.crawl(t, nil)
	adaptive := u.crawlAdaptive(t)
	if plain.CoveredCount != adaptive.CoveredCount {
		t.Fatalf("adaptive crawl covered %d, plain %d — the knobs changed a clean run",
			adaptive.CoveredCount, plain.CoveredCount)
	}

	requireOverheadBudget(t, "adaptive", "plain", "adaptive",
		timed(func() { u.crawl(t, nil) }),
		timed(func() { u.crawlAdaptive(t) }))
}
