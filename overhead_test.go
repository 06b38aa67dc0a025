package smartcrawl_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// requireOverheadBudget is the standing overhead budget shared by the
// *_overhead_test.go files: a run of variant may cost at most 2% more
// CPU time than a run of base, plus 3ms absolute. name labels the layer
// under test; baseLabel and variantLabel label the two arms.
//
// Three choices keep a loaded host from failing a layer that costs
// nothing extra:
//
//   - A timing is the process's CPU time (user + system), not its wall
//     clock. On a shared host other processes take the CPU away from a
//     50ms crawl for spans as long as the crawl, and wall clock charges
//     that to whichever arm was running. Work a variant hands to another
//     goroutine (the scraper) still counts; time spent waiting does not,
//     so a cell whose layer waits counts the waits instead (the durable
//     cell counts the journal's fsyncs).
//   - The collector is paused while an arm runs and collects once at its
//     end, inside the timing. Every timing starts from a collected heap,
//     so with the collector running a crawl ran a whole number of cycles:
//     a variant that allocated 3% more ran six where the baseline ran
//     five, about 6% of a crawl, in most timings. A variant still pays
//     for its allocations and for sweeping its garbage, but not for the
//     extra cycles that garbage would trigger in a running collector. Of
//     the five cells, only the journal and the scraper allocate more
//     than their baselines, by 2-7%.
//   - Each attempt times 20 interleaved pairs, alternating which arm runs
//     first, and compares the median of all per-pair variant/baseline
//     ratios so far with the budget at the median baseline: load that
//     lasts a pair slows both of its timings, and a burst that hits one
//     timing makes one outlying pair, which the median ignores. The host's
//     own speed drifts by tens of percent over seconds, so a median of 10
//     pairs still moved by several percent. Up to three attempts run, each
//     adding 20 pairs, so a retry judges a larger sample rather than a
//     fresh small one. A real regression moves every pair.
func requireOverheadBudget(t *testing.T, name, baseLabel, variantLabel string, base, variant func()) {
	t.Helper()
	const pairs = 20
	cpu := func() time.Duration {
		d, err := processCPU()
		if err != nil {
			t.Fatalf("reading process CPU time: %v", err)
		}
		return d
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	timing := func(arm func()) time.Duration {
		start := cpu()
		arm()
		runtime.GC()
		return cpu() - start
	}
	var ratios []float64
	var bases []time.Duration
	var ratio float64
	var medBase time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		for i := 0; i < pairs; i++ {
			var b, v time.Duration
			if i%2 == 0 {
				b = timing(base)
				v = timing(variant)
			} else {
				v = timing(variant)
				b = timing(base)
			}
			bases = append(bases, b)
			ratios = append(ratios, float64(v)/float64(b))
		}
		ratio, medBase = median(ratios), median(bases)
		if ratio <= 1.02+float64(3*time.Millisecond)/float64(medBase) {
			t.Logf("%s overhead: median %s/%s CPU ratio %.4f over %d pairs (%s median %v)",
				name, variantLabel, baseLabel, ratio, len(ratios), baseLabel, medBase)
			return
		}
		t.Logf("attempt %d over budget: median %s/%s CPU ratio %.4f over %d pairs (%s median %v) — retrying",
			attempt, variantLabel, baseLabel, ratio, len(ratios), baseLabel, medBase)
	}
	t.Fatalf("%s overhead too high in all attempts: median %s/%s CPU ratio %.4f (%.2f%%) over %d pairs, %s median %v",
		name, variantLabel, baseLabel, ratio, 100*(ratio-1), len(ratios), baseLabel, medBase)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
func median[T float64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
