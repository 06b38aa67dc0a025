package crawler_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// countingMatcher is the exact matcher behind a probe counter. It is not
// an Exact, Jaccard or BlockedAnd, so the Joiner takes its full-scan path,
// which calls Match once per local record per probe: the calls whose
// local argument is the first local record count the probes. Keys are
// memoized per record so the full scan stays cheap.
type countingMatcher struct {
	exact  *match.Exact
	tk     *tokenize.Tokenizer
	first  *relational.Record
	probes atomic.Int64

	mu           sync.Mutex
	dKeys, hKeys map[*relational.Record]string
}

func newCountingMatcher(exact *match.Exact, tk *tokenize.Tokenizer, first *relational.Record) *countingMatcher {
	return &countingMatcher{
		exact: exact, tk: tk, first: first,
		dKeys: map[*relational.Record]string{}, hKeys: map[*relational.Record]string{},
	}
}

func (m *countingMatcher) Match(d, h *relational.Record) bool {
	if d == m.first {
		m.probes.Add(1)
	}
	return m.key(m.dKeys, d, m.exact.DCols) == m.key(m.hKeys, h, m.exact.HCols)
}

func (m *countingMatcher) key(memo map[*relational.Record]string, r *relational.Record, cols []int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := memo[r]
	if !ok {
		k = match.KeyOn(r, m.tk, cols)
		memo[r] = k
	}
	return k
}

// matchOnceInstance is a small DBLP crawl whose queries re-return many
// records: k = 20 over 1 000 hidden records.
type matchOnceInstance struct {
	in      *dataset.Instance
	tk      *tokenize.Tokenizer
	exact   *match.Exact
	counter *countingMatcher
	env     *crawler.Env
}

func newMatchOnceInstance(t *testing.T) *matchOnceInstance {
	t.Helper()
	in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
		CorpusSize: 4000, HiddenSize: 1000, LocalSize: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk := tokenize.New()
	exact := match.NewExactOn(tk, in.LocalKey, in.HiddenKey)
	counter := newCountingMatcher(exact, tk, in.Local.Records[0])
	return &matchOnceInstance{
		in: in, tk: tk, exact: exact, counter: counter,
		env: &crawler.Env{Local: in.Local, Searcher: newMatchOnceDB(in, tk, 20), Tokenizer: tk, Matcher: counter},
	}
}

func newMatchOnceDB(in *dataset.Instance, tk *tokenize.Tokenizer, k int) *hidden.Database {
	return hidden.New(in.Hidden, tk, k, hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
}

func (mi *matchOnceInstance) sample(seed uint64) *sample.Sample {
	return sample.Bernoulli(mi.in.Hidden, 0.05, stats.NewRNG(seed))
}

// requireReturnsRepeat fails unless the steps returned more records than
// they newly crawled — without repeats the probe count shows nothing.
func requireReturnsRepeat(t *testing.T, steps []crawler.Step) {
	t.Helper()
	returned, crawled := 0, 0
	for _, st := range steps {
		returned += st.ResultSize
		crawled += len(st.NewHidden)
	}
	if returned <= crawled {
		t.Fatalf("case not exercised: %d records returned, %d newly crawled", returned, crawled)
	}
}

// requireAlgorithm4 is the semantic oracle of the absorb step, computed
// from the result alone: local record d is covered exactly when some
// crawled record matches it, Matches[d] is the first match in the order
// the steps first crawled their records, each step's NewlyCovered counts
// the records it matched first, and every crawled record appears in
// exactly one step's NewHidden.
func requireAlgorithm4(t *testing.T, mi *matchOnceInstance, res *crawler.Result) {
	t.Helper()
	localKeys := make([]string, mi.in.Local.Len())
	for d, r := range mi.in.Local.Records {
		localKeys[d] = match.KeyOn(r, mi.tk, mi.exact.DCols)
	}
	firstStep := make([]int, len(localKeys))
	firstHidden := make([]int, len(localKeys))
	for d := range firstStep {
		firstStep[d] = -1
	}
	seen := make(map[int]bool, len(res.Crawled))
	for i, st := range res.Steps {
		for _, id := range st.NewHidden {
			h, ok := res.Crawled[id]
			if !ok || seen[id] {
				t.Fatalf("step %d: NewHidden %d is uncrawled or repeated", i, id)
			}
			seen[id] = true
			key := match.KeyOn(h, mi.tk, mi.exact.HCols)
			for d, lk := range localKeys {
				if firstStep[d] < 0 && lk == key {
					firstStep[d], firstHidden[d] = i, id
				}
			}
		}
	}
	if len(seen) != len(res.Crawled) {
		t.Fatalf("steps crawled %d records, Crawled holds %d", len(seen), len(res.Crawled))
	}
	newly := make([]int, len(res.Steps))
	covered := 0
	for d, i := range firstStep {
		if (i >= 0) != res.Covered[d] {
			t.Fatalf("Covered[%d] = %v, but first crawled match is in step %d", d, res.Covered[d], i)
		}
		if i < 0 {
			continue
		}
		newly[i]++
		covered++
		if h := res.Matches[d]; h == nil || h.ID != firstHidden[d] {
			t.Fatalf("Matches[%d] = %v, want first crawled match %d", d, h, firstHidden[d])
		}
	}
	if covered != res.CoveredCount || len(res.Matches) != covered {
		t.Fatalf("CoveredCount %d, Matches %d, oracle %d", res.CoveredCount, len(res.Matches), covered)
	}
	for i, st := range res.Steps {
		if st.NewlyCovered != newly[i] {
			t.Fatalf("step %d NewlyCovered %d, oracle %d", i, st.NewlyCovered, newly[i])
		}
	}
}

// TestMatchEachCrawledRecordOnce guards the absorb step's probe count: the
// Joiner is probed once per sample record at setup and once per newly
// crawled record, never for a record an earlier query already returned.
func TestMatchEachCrawledRecordOnce(t *testing.T) {
	const budget = 60
	run := func(t *testing.T, mi *matchOnceInstance, c crawler.Crawler, samples ...*sample.Sample) *crawler.Result {
		t.Helper()
		mi.counter.probes.Store(0)
		res, err := c.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		want := len(res.Crawled)
		for _, s := range samples {
			want += s.Len()
		}
		if got := mi.counter.probes.Load(); got != int64(want) {
			t.Fatalf("%d Joiner probes, want %d (samples + %d crawled)", got, want, len(res.Crawled))
		}
		requireReturnsRepeat(t, res.Steps)
		requireAlgorithm4(t, mi, res)
		return res
	}

	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("smart/batch=%d", batch), func(t *testing.T) {
			mi := newMatchOnceInstance(t)
			smp := mi.sample(7)
			c, err := crawler.NewSmart(mi.env, crawler.SmartConfig{Sample: smp, BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			run(t, mi, c, smp)
		})
	}

	t.Run("federated", func(t *testing.T) {
		mi := newMatchOnceInstance(t)
		wide, narrow := mi.sample(7), mi.sample(8)
		env := *mi.env
		env.Searcher = nil
		c, err := crawler.NewFederatedSmart(&env, crawler.SmartConfig{BatchSize: 2}, []crawler.Interface{
			{Name: "wide", Searcher: mi.env.Searcher, Sample: wide},
			{Name: "narrow", Searcher: newMatchOnceDB(mi.in, mi.tk, 10), Sample: narrow},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, mi, c, wide, narrow)
		ifaces := map[int]bool{}
		for _, st := range res.Steps {
			ifaces[st.Iface] = true
		}
		if len(ifaces) != 2 {
			t.Fatalf("case not exercised: steps used interfaces %v", ifaces)
		}
	})

	t.Run("naive", func(t *testing.T) {
		mi := newMatchOnceInstance(t)
		c, err := crawler.NewNaive(mi.env, []int{1}, 5) // venue queries overlap
		if err != nil {
			t.Fatal(err)
		}
		run(t, mi, c)
	})

	t.Run("resumed", func(t *testing.T) {
		mi := newMatchOnceInstance(t)
		smp := mi.sample(7)
		c1, err := crawler.NewSmart(mi.env, crawler.SmartConfig{Sample: smp})
		if err != nil {
			t.Fatal(err)
		}
		res1, err := c1.Run(budget / 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := crawler.SaveResult(&buf, res1); err != nil {
			t.Fatal(err)
		}
		loaded, err := crawler.LoadResult(&buf)
		if err != nil {
			t.Fatal(err)
		}
		crawled1, steps1 := len(loaded.Crawled), len(loaded.Steps)

		mi.counter.probes.Store(0)
		c2, err := crawler.NewSmart(mi.env, crawler.SmartConfig{Sample: smp, Resume: loaded})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := c2.Run(budget / 2)
		if err != nil {
			t.Fatal(err)
		}
		want := smp.Len() + len(res2.Crawled) - crawled1
		if got := mi.counter.probes.Load(); got != int64(want) {
			t.Fatalf("resumed session made %d Joiner probes, want %d (sample %d + crawled %d - %d)",
				got, want, smp.Len(), len(res2.Crawled), crawled1)
		}
		requireReturnsRepeat(t, res2.Steps[steps1:])
		requireAlgorithm4(t, mi, res2)
	})
}
