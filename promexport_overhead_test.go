// The /metrics endpoint rides next to a live crawl, so rendering the
// Prometheus exposition must fit inside the same observability budget as
// the hooks themselves: a crawl scraped continuously may cost at most 2%
// more wall-clock than an unscraped one (BENCH_obs.json methodology).
// BenchmarkPromExport records the cost of a single collect+render pass.
package smartcrawl_test

import (
	"io"
	"testing"
	"time"

	"smartcrawl"
	"smartcrawl/internal/obs/promexport"
)

// scrape renders one full exposition of o, as the /metrics handler does.
func scrape(o *smartcrawl.Obs, w io.Writer) {
	c := promexport.NewCollection()
	c.CollectObs(o)
	c.WriteText(w)
}

// BenchmarkPromExport times one CollectObs+WriteText pass over a sink that
// has absorbed a full budget-48 crawl — the steady-state cost of a scrape.
func BenchmarkPromExport(b *testing.B) {
	u := newSimUniverse(b)
	o := smartcrawl.NewObs()
	u.crawl(b, o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scrape(o, io.Discard)
	}
}

// TestPromExportOverheadUnderTwoPercent pits a crawl with a live metrics
// sink against the same crawl while a goroutine scrapes that sink every
// 5ms — three thousand times harsher than the default 15s Prometheus
// interval, yet still a duty cycle a real deployment could see. The
// scraped crawl must stay within the standing budget: 2% relative plus
// 3ms absolute, interleaved min-of-10, up to three attempts (see
// requireOverheadBudget for why min-of-N and retries).
func TestPromExportOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceDetectorOn {
		t.Skip("timing budget is meaningless under the race detector")
	}
	u := newSimUniverse(t)

	// crawlScraped runs one crawl while a scraper polls the sink on a
	// 5ms ticker — the contention profile of an aggressive /metrics
	// client, without degenerating into a busy loop that just fights
	// the crawl for a core.
	crawlScraped := func() time.Duration {
		o := smartcrawl.NewObs()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					scrape(o, io.Discard)
				}
			}
		}()
		start := time.Now()
		u.crawl(t, o)
		d := time.Since(start)
		close(stop)
		<-done
		return d
	}
	crawlPlain := timed(func() { u.crawl(t, smartcrawl.NewObs()) })

	// Warm both paths before timing.
	crawlPlain()
	crawlScraped()

	requireOverheadBudget(t, "scrape", "unscraped", "scraped", crawlPlain, crawlScraped)
}
