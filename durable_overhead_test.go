// Overhead budget for the durability layer: the WAL journal rides inside
// the crawl merge stage, so every charged query pays one framed append.
// BenchmarkDurableOverhead is the artifact recorded in BENCH_durable.json;
// TestDurableOverheadUnderTwoPercent enforces the <2% budget in the
// regular test run using the interleaved min-of-N scheme every overhead
// budget test shares (requireOverheadBudget, overhead_test.go).
package smartcrawl_test

import (
	"path/filepath"
	"testing"

	"smartcrawl"
)

// durableMode names one durability configuration of the benchmark matrix.
type durableMode struct {
	name     string
	snapshot bool // write a checkpoint at all
	journal  bool // WAL journal on top of the snapshot
	every    int  // autosave cadence (0 = compact only at Close)
	sync     string
}

// crawlDurable runs one budget-48 smart crawl with the given durability
// mode attached, in a fresh directory — no snapshot or journal from a
// previous iteration is ever picked up, so every run starts cold and
// covers the same records.
func (u *simUniverse) crawlDurable(tb testing.TB, m durableMode) *smartcrawl.Result {
	tb.Helper()
	u.env.Obs = nil
	opts := smartcrawl.SmartOptions{Sample: u.smp, BatchSize: 8}
	var sink *smartcrawl.Durability
	if m.snapshot {
		dir := tb.TempDir()
		dopts := smartcrawl.DurabilityOptions{
			Snapshot: filepath.Join(dir, "cp.bin"),
			Every:    m.every,
			Sync:     m.sync,
		}
		if m.journal {
			dopts.Journal = filepath.Join(dir, "cp.wal")
			dopts.LocalLen = u.env.Local.Len()
		}
		var err error
		sink, err = smartcrawl.OpenDurability(dopts)
		if err != nil {
			tb.Fatal(err)
		}
		opts.Durability = sink
	}
	c, err := smartcrawl.NewSmartCrawler(u.env, opts)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := c.Run(48)
	if err != nil {
		tb.Fatal(err)
	}
	if sink != nil {
		if err := sink.Close(res); err != nil {
			tb.Fatal(err)
		}
	}
	return res
}

// BenchmarkDurableOverhead times the same in-process crawl under four
// durability modes: none, snapshot-only (atomic checkpoint at Close),
// the default WAL configuration (journal + SyncCompact), and the
// paranoid one (fsync after every append). Recorded in
// BENCH_durable.json.
func BenchmarkDurableOverhead(b *testing.B) {
	modes := []durableMode{
		{name: "durability=off"},
		{name: "durability=snapshot", snapshot: true},
		{name: "durability=wal-compact", snapshot: true, journal: true,
			every: smartcrawl.DefaultAutosave, sync: smartcrawl.SyncCompact},
		{name: "durability=wal-compact-autosave8", snapshot: true, journal: true, every: 8, sync: smartcrawl.SyncCompact},
		{name: "durability=wal-always", snapshot: true, journal: true,
			every: smartcrawl.DefaultAutosave, sync: smartcrawl.SyncAlways},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			u := newSimUniverse(b)
			b.ResetTimer()
			var covered int
			for i := 0; i < b.N; i++ {
				res := u.crawlDurable(b, mode)
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

// TestDurableOverheadUnderTwoPercent enforces the durability budget: a
// crawl journaling every charged query under the default fsync policy
// must cost at most 2% more wall-clock than one writing only the final
// atomic snapshot (plus a small absolute allowance for timer noise and
// the journal's open/close fsyncs). Comparing against snapshot-only —
// not against no durability at all — isolates the journal itself: both
// sides pay the one Close-time checkpoint every durable crawl writes.
func TestDurableOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceDetectorOn {
		t.Skip("timing budget is meaningless under the race detector")
	}
	u := newSimUniverse(t)
	base := durableMode{name: "snapshot", snapshot: true}
	wal := durableMode{name: "wal", snapshot: true, journal: true,
		every: smartcrawl.DefaultAutosave, sync: smartcrawl.SyncCompact}
	// Warm both paths (index sharding, page cache) before timing.
	u.crawlDurable(t, base)
	u.crawlDurable(t, wal)

	requireOverheadBudget(t, "durable", "snapshot-only", "wal",
		timed(func() { u.crawlDurable(t, base) }),
		timed(func() { u.crawlDurable(t, wal) }))
}
