package crawler_test

import (
	"bytes"
	"strings"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/trace"
)

// queryLog flattens the issued-query trace into one string so worker-count
// comparisons are literally byte-identical, not just step-by-step equal.
func queryLog(res *crawler.Result) string {
	keys := make([]string, len(res.Steps))
	for i, s := range res.Steps {
		keys[i] = s.Query.Key()
	}
	return strings.Join(keys, "\n")
}

// TestParallelCrawlDeterministic is the determinism regression for the
// concurrent pipeline: for each seed, every worker count must produce a
// byte-identical issued-query log and identical coverage. Concurrency is a
// wall-clock knob only — selection happens before dispatch and outcomes
// merge in selection order, so the crawl trajectory cannot depend on
// goroutine scheduling.
func TestParallelCrawlDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		run := func(workers int) *crawler.Result {
			env, in, _ := dblpEnv(t, dataset.DBLPConfig{
				CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: seed,
			}, 50, nil)
			smp := sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(seed+100))
			c, err := crawler.NewSmart(env, crawler.SmartConfig{
				Sample:      smp,
				Estimator:   estimator.Biased{},
				BatchSize:   8,
				Concurrency: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(48)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1)
		refLog := queryLog(ref)
		if len(ref.Steps) == 0 {
			t.Fatalf("seed %d: reference run issued no queries", seed)
		}
		for _, workers := range []int{4, 16} {
			got := run(workers)
			if log := queryLog(got); log != refLog {
				t.Fatalf("seed %d workers %d: issued-query log diverged\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					seed, workers, refLog, workers, log)
			}
			if got.CoveredCount != ref.CoveredCount {
				t.Fatalf("seed %d workers %d: coverage %d, want %d",
					seed, workers, got.CoveredCount, ref.CoveredCount)
			}
			if got.QueriesIssued != ref.QueriesIssued {
				t.Fatalf("seed %d workers %d: issued %d, want %d",
					seed, workers, got.QueriesIssued, ref.QueriesIssued)
			}
		}
	}
}

// TestTracingDeterministic is the observability counterpart of the test
// above: attaching a metrics sink and a JSONL tracer must not perturb the
// crawl. For each seed and worker count, the traced run's issued-query
// log and coverage must be byte-identical to the untraced run's — obs
// hooks observe, they never decide. The traced run must also actually
// emit a parseable trace whose query events mirror the crawl trajectory.
func TestTracingDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		run := func(workers int, o *obs.Obs) *crawler.Result {
			env, in, _ := dblpEnv(t, dataset.DBLPConfig{
				CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: seed,
			}, 50, nil)
			env.Obs = o
			smp := sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(seed+100))
			c, err := crawler.NewSmart(env, crawler.SmartConfig{
				Sample:      smp,
				Estimator:   estimator.Biased{},
				BatchSize:   8,
				Concurrency: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(48)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for _, workers := range []int{1, 4, 16} {
			plain := run(workers, nil)
			var traceBuf bytes.Buffer
			o := obs.New()
			o.SetTracer(obs.NewTracer(&traceBuf))
			traced := run(workers, o)

			if a, b := queryLog(plain), queryLog(traced); a != b {
				t.Fatalf("seed %d workers %d: tracing changed the issued-query log\n--- off ---\n%s\n--- on ---\n%s",
					seed, workers, a, b)
			}
			if plain.CoveredCount != traced.CoveredCount {
				t.Fatalf("seed %d workers %d: tracing changed coverage %d → %d",
					seed, workers, plain.CoveredCount, traced.CoveredCount)
			}

			// The sink must have seen the whole crawl…
			if got := o.QueriesIssued.Value(); got != int64(traced.QueriesIssued) {
				t.Fatalf("seed %d workers %d: obs counted %d queries, crawl issued %d",
					seed, workers, got, traced.QueriesIssued)
			}
			if got := o.RecordsCovered.Value(); got != int64(traced.CoveredCount) {
				t.Fatalf("seed %d workers %d: obs counted %d covered, crawl covered %d",
					seed, workers, got, traced.CoveredCount)
			}
			// …and the trace must replay it: one query event per step, in
			// absorb order, with matching keys and coverage deltas.
			events, err := trace.Parse(bytes.NewReader(traceBuf.Bytes()))
			if err != nil {
				t.Fatalf("seed %d workers %d: trace not parseable: %v", seed, workers, err)
			}
			var queries []trace.Event
			for _, e := range events {
				if e.Type == obs.EventQuery {
					queries = append(queries, e)
				}
			}
			if len(queries) != len(traced.Steps) {
				t.Fatalf("seed %d workers %d: %d query events for %d steps",
					seed, workers, len(queries), len(traced.Steps))
			}
			for i, e := range queries {
				if e.Query != traced.Steps[i].Query.Key() {
					t.Fatalf("seed %d workers %d: trace event %d query %q, step %q",
						seed, workers, i, e.Query, traced.Steps[i].Query.Key())
				}
			}
			if last := queries[len(queries)-1]; last.CumCovered != traced.CoveredCount {
				t.Fatalf("seed %d workers %d: final trace cum_covered %d, coverage %d",
					seed, workers, last.CumCovered, traced.CoveredCount)
			}
		}
	}
}

// TestParallelCrawlDefaultsConcurrencyToBatch pins the documented default:
// Concurrency 0 means "BatchSize workers", and the result is still
// identical to an explicit worker count.
func TestParallelCrawlDefaultsConcurrencyToBatch(t *testing.T) {
	run := func(workers int) *crawler.Result {
		env, in, _ := dblpEnv(t, dataset.DBLPConfig{
			CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: 7,
		}, 50, nil)
		smp := sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(77))
		c, err := crawler.NewSmart(env, crawler.SmartConfig{
			Sample: smp, Estimator: estimator.Biased{},
			BatchSize: 6, Concurrency: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, explicit := run(0), run(6)
	if queryLog(def) != queryLog(explicit) || def.CoveredCount != explicit.CoveredCount {
		t.Fatal("Concurrency=0 (default to BatchSize) diverged from explicit Concurrency=BatchSize")
	}
}
