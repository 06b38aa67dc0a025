package smartcrawl_test

import (
	"runtime"
	"testing"
	"time"
)

// requireOverheadBudget is the standing wall-clock budget shared by the
// *_overhead_test.go files: the variant may cost at most 2% more than the
// baseline, plus 3ms absolute for timer granularity. A shared CI machine
// wobbles single timings by several percent, so a one-shot comparison
// would flake in both directions. Each attempt therefore compares
// interleaved min-of-10 timings — min-of-N is robust to scheduling noise,
// which only ever slows a run down — and up to three attempts may run. A
// real regression shifts every attempt past the budget; noise does not
// survive three. name labels the layer under test; baseLabel and
// variantLabel label the two timings.
func requireOverheadBudget(t *testing.T, name, baseLabel, variantLabel string, base, variant func() time.Duration) {
	t.Helper()
	const rounds = 10
	var lastOff, lastOn time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		minOff, minOn := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < rounds; i++ {
			runtime.GC()
			if d := base(); d < minOff {
				minOff = d
			}
			runtime.GC()
			if d := variant(); d < minOn {
				minOn = d
			}
		}
		lastOff, lastOn = minOff, minOn
		if minOn <= minOff+minOff/50+3*time.Millisecond {
			t.Logf("%s overhead: %s min %v, %s min %v (%.2f%%)",
				name, baseLabel, minOff, variantLabel, minOn, 100*(float64(minOn)/float64(minOff)-1))
			return
		}
		t.Logf("attempt %d over budget: %s min %v, %s min %v — retrying",
			attempt+1, baseLabel, minOff, variantLabel, minOn)
	}
	t.Fatalf("%s overhead too high in all attempts: %s min %v, %s min %v (%.2f%%)",
		name, baseLabel, lastOff, variantLabel, lastOn, 100*(float64(lastOn)/float64(lastOff)-1))
}

// timed turns f into a timing for requireOverheadBudget: each call runs f
// once and returns its wall clock.
func timed(f func()) func() time.Duration {
	return func() time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
}
