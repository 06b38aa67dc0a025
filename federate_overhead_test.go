// Overhead budget for the federation layer: the single-interface crawl IS
// the n=1 federated loop (interface handles, allocator bookkeeping, tagged
// steps), so generalizing the loop must not tax the non-federated user.
// BenchmarkFederateOverhead times it; TestFederateOverheadUnderTwoPercent
// enforces the <2% budget in the regular test run using the same
// paired-median scheme (requireOverheadBudget, overhead_test.go) as the
// observability and durability budget tests. End-to-end crawl timings come from the crawl benchmark,
// perfbench (workloads in perfbench/workloads.json), whose crawls all run
// through this loop.
package smartcrawl_test

import (
	"testing"

	"smartcrawl"
)

// crawlFederated runs the same budget-48 crawl as simUniverse.crawl, but
// through NewFederatedCrawler with a single interface wrapping the same
// searcher and sample — the n=1 federation whose cost this file bounds.
func (u *simUniverse) crawlFederated(tb testing.TB) *smartcrawl.Result {
	tb.Helper()
	u.env.Obs = nil
	env := *u.env
	env.Searcher = nil
	c, err := smartcrawl.NewFederatedCrawler(&env, smartcrawl.SmartOptions{
		BatchSize: 8,
	}, []smartcrawl.FederatedInterface{
		{Name: "only", Searcher: u.env.Searcher, Sample: u.smp},
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

// BenchmarkFederateOverhead times the same in-process crawl built two
// ways: NewSmartCrawler directly, and NewFederatedCrawler over one
// interface. Coverage must be identical — the n=1 federation is the same
// loop, not a wrapper.
func BenchmarkFederateOverhead(b *testing.B) {
	modes := []struct {
		name string
		run  func(u *simUniverse) *smartcrawl.Result
	}{
		{"mode=single", func(u *simUniverse) *smartcrawl.Result { return u.crawl(b, nil) }},
		{"mode=federated-n1", func(u *simUniverse) *smartcrawl.Result { return u.crawlFederated(b) }},
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

// TestFederateOverheadUnderTwoPercent enforces the federation budget: the
// n=1 federated crawl must cost at most 2% more CPU time than the
// direct single-interface construction (plus a small absolute allowance
// for timer noise). The two runs must also agree on coverage exactly —
// the cheap half of the byte-identity oracle in internal/federate.
func TestFederateOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceDetectorOn {
		t.Skip("timing budget is meaningless under the race detector")
	}
	u := newSimUniverse(t)
	// Warm both paths (index sharding, page cache) before timing, and pin
	// the coverage equivalence while at it.
	single := u.crawl(t, nil)
	federated := u.crawlFederated(t)
	if single.CoveredCount != federated.CoveredCount {
		t.Fatalf("n=1 federated crawl covered %d, single-interface %d — not the same loop",
			federated.CoveredCount, single.CoveredCount)
	}

	requireOverheadBudget(t, "federation", "single", "federated-n1",
		func() { u.crawl(t, nil) },
		func() { u.crawlFederated(t) })
}
