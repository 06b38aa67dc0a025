package crawler_test

// The golden oracle for Smart.Run. The determinism oracles elsewhere
// compare one run of the code with another run of the same code, so a
// change that alters behaviour identically at every worker count passes
// them all. These goldens instead pin, per scenario, everything a crawl
// emits — the step log with exact benefits, coverage, the checkpoint
// bytes, pool size and repushes, every DurabilitySink call, the obs
// counters (per interface too), the Workers=1 JSONL trace under fixed
// clocks, and Run's error — as recorded files under testdata/golden.
//
// Regenerate with `go test ./internal/crawler/ -run TestSmartGolden -update`
// only when a change is meant to alter crawl behaviour, and say so.
//
// Outcomes that depend on the wall clock — a crawl Deadline interrupting a
// search, a QueryTimeout firing — cannot be pinned byte for byte; they are
// covered by the behavioural tests in resilience_test.go.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

var updateGolden = flag.Bool("update", false, "rewrite the Smart.Run goldens under testdata/golden")

// goldenCase is one pinned scenario. run builds and runs its sessions
// through g; workers lists the Concurrency values it runs at, all of which
// must produce the same golden (the first, always 1, also pins the trace).
type goldenCase struct {
	name    string
	workers []int
	run     func(g *goldenRun)
}

// goldenRun is one execution of a case at one worker count: a shared obs
// sink (fixed clocks, tracing into trace), a recording durability sink,
// and the rendered output.
type goldenRun struct {
	t       *testing.T
	workers int
	obs     *obs.Obs
	trace   bytes.Buffer
	sink    *recordingSink
	out     strings.Builder
}

// ff renders a float exactly: the shortest text that parses back to the
// same bits.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fakeClock advances a fixed step per call for byte-stable traces.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(3600, 0).UTC()
	return func() time.Time { t = t.Add(step); return t }
}

var (
	goldenOnce sync.Once
	goldenInst *dataset.Instance
	goldenErr  error
)

// goldenInstance generates (once) the small DBLP fixture the goldens
// crawl: 100 local records, 20 of them outside H.
func goldenInstance(t *testing.T) *dataset.Instance {
	t.Helper()
	goldenOnce.Do(func() {
		goldenInst, goldenErr = dataset.GenerateDBLP(dataset.DBLPConfig{
			CorpusSize: 1600, HiddenSize: 400, LocalSize: 100, DeltaD: 20, Seed: 11,
		})
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenInst
}

// env builds a fresh single-interface environment over the fixture with
// result limit k, observed by g's sink.
func (g *goldenRun) env(k int) (*crawler.Env, *dataset.Instance) {
	in := goldenInstance(g.t)
	tk := tokenize.New()
	db := hidden.New(in.Hidden, tk, k, hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
	return &crawler.Env{
		Local:     in.Local,
		Searcher:  db,
		Tokenizer: tk,
		Matcher:   match.NewExactOn(tk, in.LocalKey, in.HiddenKey),
		Obs:       g.obs,
	}, in
}

// config returns the case-independent part of every golden config.
func (g *goldenRun) config(batch int) crawler.SmartConfig {
	return crawler.SmartConfig{BatchSize: batch, Concurrency: g.workers, Durability: g.sink}
}

// session runs one crawl and renders everything it produced.
func (g *goldenRun) session(label string, c *crawler.Smart, budget int) *crawler.Result {
	g.t.Helper()
	res, err := c.Run(budget)
	fmt.Fprintf(&g.out, "== session %s: %s budget=%d\n", label, c.Name(), budget)
	fmt.Fprintf(&g.out, "pool_size=%d heap_repushes=%d\n", c.PoolSize, c.HeapRepushes)
	if err != nil {
		fmt.Fprintf(&g.out, "error: %v\n", err)
	}
	if res == nil {
		return nil
	}
	for i, st := range res.Steps {
		fmt.Fprintf(&g.out, "step %d\t%d\t%s\t%s\t%d\t%d\t%d\t%v\n", i, st.Iface, st.Query.Key(),
			ff(st.EstimatedBenefit), st.NewlyCovered, st.CumulativeCovered, st.ResultSize, st.NewHidden)
	}
	fmt.Fprintf(&g.out, "covered=%d queries=%d crawled=%d matches=%d\nbitmap=", res.CoveredCount,
		res.QueriesIssued, len(res.Crawled), len(res.Matches))
	for _, c := range res.Covered {
		if c {
			g.out.WriteByte('1')
		} else {
			g.out.WriteByte('0')
		}
	}
	g.out.WriteByte('\n')
	if rep := res.Resilience; rep != nil {
		b, _ := json.Marshal(rep)
		fmt.Fprintf(&g.out, "resilience=%s\n", b)
	}
	var cp bytes.Buffer
	if err := crawler.SaveResult(&cp, res); err != nil {
		g.t.Fatal(err)
	}
	fmt.Fprintf(&g.out, "checkpoint_sha256=%x\n", sha256.Sum256(cp.Bytes()))
	return res
}

// finish appends the sink log and the obs counters. Search latency is
// wall-clock, so only its count is kept.
func (g *goldenRun) finish() string {
	g.out.WriteString("== durability sink\n")
	g.out.WriteString(g.sink.log.String())
	snap := g.obs.Snapshot()
	if lat, ok := snap["search_latency"].(map[string]any); ok {
		snap["search_latency"] = map[string]any{"count": lat["count"]}
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		g.t.Fatal(err)
	}
	fmt.Fprintf(&g.out, "== obs\n%s\n", b)
	return g.out.String()
}

// recordingSink logs every DurabilitySink call with its arguments and the
// accounting visible in res at that moment.
type recordingSink struct{ log strings.Builder }

func (s *recordingSink) state(res *crawler.Result) string {
	rep := "-"
	if res.Resilience != nil {
		rep = res.Resilience.String()
	}
	return fmt.Sprintf("covered=%d queries=%d steps=%d %s", res.CoveredCount, res.QueriesIssued, len(res.Steps), rep)
}

func (s *recordingSink) RoundSelected(sel []crawler.PendingQuery, res *crawler.Result) error {
	s.log.WriteString("RoundSelected")
	for _, p := range sel {
		fmt.Fprintf(&s.log, " [%d %q %s]", p.Iface, p.Query.Key(), ff(p.Benefit))
	}
	fmt.Fprintf(&s.log, " | %s\n", s.state(res))
	return nil
}

func (s *recordingSink) StepAbsorbed(res *crawler.Result, step crawler.Step, newly []int) error {
	fmt.Fprintf(&s.log, "StepAbsorbed %q %v | %s\n", step.Query.Key(), newly, s.state(res))
	return nil
}

func (s *recordingSink) QueryRequeued(q deepweb.Query, attempt int, charged bool, res *crawler.Result) error {
	fmt.Fprintf(&s.log, "QueryRequeued %q attempt=%d charged=%v | %s\n", q.Key(), attempt, charged, s.state(res))
	return nil
}

func (s *recordingSink) QueryForfeited(q deepweb.Query, attempts int, charged bool, res *crawler.Result) error {
	fmt.Fprintf(&s.log, "QueryForfeited %q attempts=%d charged=%v | %s\n", q.Key(), attempts, charged, s.state(res))
	return nil
}

func (s *recordingSink) BudgetStopped(q deepweb.Query, res *crawler.Result) error {
	fmt.Fprintf(&s.log, "BudgetStopped %q | %s\n", q.Key(), s.state(res))
	return nil
}

func (s *recordingSink) RoundCompleted(res *crawler.Result) error {
	fmt.Fprintf(&s.log, "RoundCompleted | %s\n", s.state(res))
	return nil
}

// keyFault fails chosen queries with err: those listed in keys, and those
// whose key hashes into residue 0 mod mod (when mod > 0). Each chosen
// query fails its first `times` attempts (times <= 0: every attempt). The
// choice depends only on the key, so every worker count sees the same
// failures.
type keyFault struct {
	deepweb.Searcher
	keys  map[string]bool
	mod   uint32
	times int
	err   error

	mu       sync.Mutex
	attempts map[string]int
}

func (f *keyFault) chosen(key string) bool {
	if f.keys[key] {
		return true
	}
	if f.mod == 0 {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()%f.mod == 0
}

func (f *keyFault) Search(q deepweb.Query) ([]*relational.Record, error) {
	key := q.Key()
	if f.chosen(key) {
		f.mu.Lock()
		if f.attempts == nil {
			f.attempts = map[string]int{}
		}
		f.attempts[key]++
		n := f.attempts[key]
		f.mu.Unlock()
		if f.times <= 0 || n <= f.times {
			return nil, f.err
		}
	}
	return f.Searcher.Search(q)
}

// cancelAfter cancels the crawl's Context right after serving its n-th
// search — a graceful shutdown that lands mid-round.
type cancelAfter struct {
	deepweb.Searcher
	n      int
	cancel context.CancelFunc

	mu   sync.Mutex
	seen int
}

func (c *cancelAfter) Search(q deepweb.Query) ([]*relational.Record, error) {
	recs, err := c.Searcher.Search(q)
	c.mu.Lock()
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	c.mu.Unlock()
	return recs, err
}

func mustSmart(t *testing.T, env *crawler.Env, cfg crawler.SmartConfig) *crawler.Smart {
	t.Helper()
	c, err := crawler.NewSmart(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func goldenProfile(t *testing.T, spec string, seed uint64) deepweb.FaultProfile {
	t.Helper()
	p, err := deepweb.ParseFaultProfile(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	return p
}

var goldenCases = []goldenCase{
	{name: "clean_batch1", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, in := g.env(20)
		cfg := g.config(1)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		g.session("1", mustSmart(g.t, env, cfg), 40)
	}},
	{name: "clean_batch4", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, in := g.env(20)
		cfg := g.config(4)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		g.session("1", mustSmart(g.t, env, cfg), 40)
	}},
	{name: "severe_faults", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, in := g.env(20)
		// One query in 23 is refused with a budget stop; the rest of the
		// faults come from the seeded severe profile.
		env.Searcher = &keyFault{
			Searcher: deepweb.NewFaulty(env.Searcher, goldenProfile(g.t, "severe", 3)).WithObs(g.obs),
			mod:      23, err: deepweb.ErrBudgetExhausted,
		}
		cfg := g.config(4)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		cfg.MaxAttempts = 3
		cfg.RetryBudget = 0.3
		cfg.Breaker = deepweb.NewBreaker(deepweb.BreakerConfig{FailureThreshold: 2, Cooldown: 3}).WithObs(g.obs)
		g.session("1", mustSmart(g.t, env, cfg), 60)
	}},
	{name: "federated_health", workers: []int{1, 4}, run: func(g *goldenRun) {
		in := goldenInstance(g.t)
		tk := tokenize.New()
		env := &crawler.Env{Local: in.Local, Tokenizer: tk, Matcher: match.NewExactOn(tk, in.LocalKey, in.HiddenKey), Obs: g.obs}
		ks := []int{20, 10, 15}
		n := in.Hidden.Len()
		ifaces := make([]crawler.Interface, 3)
		for i := range ifaces {
			tbl := relational.NewTable(fmt.Sprintf("h%d", i), in.Hidden.Schema)
			for _, r := range in.Hidden.Records[i*n/4 : (i+2)*n/4] {
				tbl.Append(r.Values...)
			}
			var s deepweb.Searcher = hidden.New(tbl, tk, ks[i], hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
			h := crawler.Interface{Name: fmt.Sprintf("if%d", i), Searcher: s,
				Sample: sample.Bernoulli(tbl, 0.1, stats.NewRNG(uint64(40+i)))}
			if i == 0 {
				h.Searcher = deepweb.NewFaulty(s, goldenProfile(g.t, "timeout=0.3,unavailable=0.2,ratelimit=0.2", 5)).WithObs(g.obs)
				h.Breaker = deepweb.NewBreaker(deepweb.BreakerConfig{FailureThreshold: 2, Cooldown: 2}).WithObs(g.obs)
			}
			ifaces[i] = h
		}
		cfg := g.config(4)
		cfg.MaxAttempts = 2
		cfg.RetryBudget = 0.3
		cfg.Health = &crawler.HealthConfig{Alpha: 0.3, ProbeEvery: 3}
		c, err := crawler.NewFederatedSmart(env, cfg, ifaces)
		if err != nil {
			g.t.Fatal(err)
		}
		g.session("1", c, 60)
	}},
	{name: "online_resume", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, _ := g.env(20)
		cfg := g.config(2)
		cfg.OnlineCalibration = true
		res1 := g.session("1", mustSmart(g.t, env, cfg), 25)
		var cp bytes.Buffer
		if err := crawler.SaveResult(&cp, res1); err != nil {
			g.t.Fatal(err)
		}
		loaded, err := crawler.LoadResult(&cp)
		if err != nil {
			g.t.Fatal(err)
		}
		env2, _ := g.env(20)
		cfg.Resume = loaded
		g.session("2", mustSmart(g.t, env2, cfg), 30)
	}},
	{name: "eager", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, in := g.env(20)
		cfg := g.config(2)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		cfg.EagerSelection = true
		g.session("1", mustSmart(g.t, env, cfg), 40)
	}},
	{name: "no_deltad", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, in := g.env(20)
		cfg := g.config(2)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		cfg.DisableDeltaDRemoval = true
		g.session("1", mustSmart(g.t, env, cfg), 40)
	}},
	{name: "alpha_fallback", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, in := g.env(20)
		cfg := g.config(2)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.02, stats.NewRNG(9))
		cfg.Estimator = estimator.Unbiased{}
		cfg.AlphaFallback = true
		g.session("1", mustSmart(g.t, env, cfg), 40)
	}},
	{name: "resume_pending", workers: []int{1, 4}, run: func(g *goldenRun) {
		in := goldenInstance(g.t)
		smp := sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		env, _ := g.env(20)
		cfg := g.config(4)
		cfg.Sample = smp
		cfg.MaxAttempts = 3
		res1 := g.session("1", mustSmart(g.t, env, cfg), 16)

		// The queries an uninterrupted continuation would select next,
		// from an unobserved reference run.
		refEnv, _ := g.env(20)
		refEnv.Obs = nil
		ref, err := mustSmart(g.t, refEnv, crawler.SmartConfig{Sample: smp, Resume: res1}).Run(4)
		if err != nil {
			g.t.Fatal(err)
		}
		// A crashed round's tail: a query no longer in the pool, one
		// already issued, and four live pool queries — six entries, so
		// the replay spans a full round of four and a short one of two.
		pending := []crawler.PendingQuery{
			{Query: deepweb.Query{"zzgolden", "zznotpooled"}, Benefit: 7.5},
			{Query: res1.Steps[0].Query, Benefit: 3.25},
		}
		next := ref.Steps[len(res1.Steps):]
		for _, st := range next {
			pending = append(pending, crawler.PendingQuery{Query: st.Query, Benefit: st.EstimatedBenefit})
		}
		env2, _ := g.env(20)
		// The first live pending query fails its first attempt, so it is
		// requeued without ever having been popped this session.
		env2.Searcher = &keyFault{Searcher: env2.Searcher, times: 1, err: errors.New("golden: transient"),
			keys: map[string]bool{next[0].Query.Key(): true}}
		cfg.Resume = res1
		cfg.ResumePending = pending
		g.session("2", mustSmart(g.t, env2, cfg), 20)
	}},
	{name: "graceful_shutdown", workers: []int{1}, run: func(g *goldenRun) {
		env, in := g.env(20)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancelled after the 10th search: the 3rd round's last two
		// queries are never handed to the searcher.
		env.Searcher = &cancelAfter{Searcher: env.Searcher, n: 10, cancel: cancel}
		cfg := g.config(4)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		cfg.Context = ctx
		g.session("1", mustSmart(g.t, env, cfg), 40)
	}},
	{name: "nonresilient_failure", workers: []int{1, 4}, run: func(g *goldenRun) {
		env, in := g.env(20)
		env.Searcher = &keyFault{Searcher: env.Searcher, mod: 9, err: errors.New("golden: backend down")}
		cfg := g.config(4)
		cfg.Sample = sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(7))
		g.session("1", mustSmart(g.t, env, cfg), 40)
	}},
}

// TestSmartGolden runs every golden case at each of its worker counts and
// compares the rendered output (and, at Workers=1, the JSONL trace) with
// the recorded files.
func TestSmartGolden(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			for _, w := range gc.workers {
				g := &goldenRun{t: t, workers: w, sink: &recordingSink{}}
				g.obs = obs.New().WithClock(fakeClock(5 * time.Millisecond))
				g.obs.SetTracer(obs.NewTracer(&g.trace).WithClock(fakeClock(time.Millisecond)))
				gc.run(g)
				checkGolden(t, gc.name+".txt", g.finish(), w)
				if w == 1 {
					checkGolden(t, gc.name+".trace.jsonl", g.trace.String(), w)
				}
			}
		})
	}
}

func checkGolden(t *testing.T, name, got string, workers int) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden && workers == 1 {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				t.Fatalf("workers=%d: %s differs from the golden at line %d\n got: %s\nwant: %s", workers, path, i+1, a, b)
			}
		}
	}
}
