// Command perfbench is the repository's end-to-end crawl benchmark. It runs
// one workload through engine.Run, the crawl path behind cmd/smartcrawl and
// crawld, repeatedly for a fixed measuring time, checks every crawl's
// output, and prints the end-to-end metrics as one JSON object on the last
// line of standard output. With --trace 1 it instead runs a traced crawl,
// which times every layer boundary from the benchmark's own code, between
// two untraced ones, and prints the per-layer metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload dblp-wal --seed 1 --seconds 40 --trace 0
//
// Inputs are generated once per seed under .bench_build/perfbench and
// reused; the program under test sees only the generated files.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command-line flags, with the settings below.
type options struct {
	workload *workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     string
	work     string
	digests  map[string]string
}

// Settings that every benchmark run keeps and only the self-test changes:
// it runs at toy sizes in a directory of its own, and tampers with the
// recorded digests.
var (
	// sizeName names the input scale in scales.
	sizeName = "paper"
	// workDir holds the generated inputs and the crawls' output files.
	workDir = filepath.Join(".bench_build", "perfbench")
	// recordedDigests maps digestKey to the output digest of that crawl.
	//
	//go:embed digests.json
	recordedDigests []byte
)

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dblp-wal, yelp-remote or dblp-mapped")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 40, "measuring time; crawls repeat until about this long has passed (at least one)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced crawls; 1: per-layer metrics of traced crawls")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return nil, err
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return nil, fmt.Errorf("--seconds must be >= 0, got %v", *seconds)
	}
	var digests map[string]string
	if err := json.Unmarshal(recordedDigests, &digests); err != nil {
		return nil, fmt.Errorf("reading recorded digests: %w", err)
	}
	return &options{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		size:     sizeName,
		work:     workDir,
		digests:  digests,
	}, nil
}

// digestKey names a recorded digest: the output depends on the workload,
// its scale and its seed, and on nothing else.
func digestKey(workload, size string, seed uint64) string {
	return fmt.Sprintf("%s/%s/%d", workload, size, seed)
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, sc := opt.workload, scales[opt.size]
	in, err := prepareInputs(opt.work, w.data, opt.size, sc, opt.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ref := &digestRef{key: digestKey(w.name, opt.size, opt.seed)}
	ref.want, ref.recorded = opt.digests[ref.key]
	if !ref.recorded {
		fmt.Fprintf(stderr, "perfbench: no digest recorded for %s; crawls are checked against the first crawl of this run\n", ref.key)
	}
	host := newHostRecord()
	steal0 := hostSteal()
	var res *result
	if opt.trace {
		res = measureTraced(opt, sc, in, ref, stderr)
	} else {
		res = measure(opt, sc, in, ref, stderr)
	}
	host.StealS = (hostSteal() - steal0).Seconds()
	hostJSON, _ := json.Marshal(host) // plain strings and numbers
	fmt.Fprintf(stdout, "host %s\n", hostJSON)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// digestRef is the digest every crawl of a run must reproduce: the one
// recorded for the workload and seed, or else the run's first crawl's.
type digestRef struct {
	key      string
	want     string
	recorded bool
}

func (d *digestRef) check(got string) error {
	if d.want == "" {
		d.want = got
		return nil
	}
	if got != d.want {
		what := "the first crawl of this run"
		if d.recorded {
			what = "the digest recorded for " + d.key
		}
		return fmt.Errorf("check: output digest %s differs from %s (%s)", got, what, d.want)
	}
	return nil
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"crawl_s", "s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MB"},
	{"coverage", "fraction"},
	{"attempt_ok_frac", "fraction"},
}

// measure repeats untraced crawls until the measuring time has passed and
// reports the median of each metric. It stops at the first failed crawl.
func measure(opt *options, sc scale, in *inputs, ref *digestRef, stderr io.Writer) *result {
	w := opt.workload
	res := &result{Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for clock := newRunClock(opt.seconds); clock.another(); {
		res.Attempted++
		r, err := referenceCrawl(opt, sc, in)
		if err == nil {
			err = ref.check(r.digest)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s crawl %d: %v\n", w.name, res.Attempted, err)
			res.Failed++
			break
		}
		fmt.Fprintf(stderr, "crawl %d: setup_s=%.3f crawl_s=%.3f cpu_s=%.3f peak_heap_mb=%.1f coverage=%.4f attempt_ok_frac=%.4f steal_s=%.2f digest=%s\n",
			res.Attempted, r.setup.Seconds(), r.crawl.Seconds(), r.cpu.Seconds(), mb(r.peakHeap),
			r.coverage, r.okFrac, r.steal.Seconds(), r.digest)
		for name, v := range r.metrics() {
			values[name] = append(values[name], v)
		}
	}
	res.Correct = res.Failed == 0
	if res.Correct {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: median(values[m.name]), Unit: m.unit}
		}
	}
	return res
}

// perLayer lists the per-layer metrics of a traced run with their units.
var perLayer = []struct{ name, unit string }{
	{"relational.load_s", "s"},
	{"relational.write_s", "s"},
	{"index.corpus_build_s", "s"},
	{"index.corpus_open_s", "s"},
	{"hidden.build_s", "s"},
	{"hidden.heap_mb", "MB"},
	{"hidden.search_s", "s"},
	{"hidden.searches", "count"},
	{"deepweb.round_wait_s", "s"},
	{"deepweb.attempts", "count"},
	{"deepweb.requeued", "count"},
	{"deepweb.forfeited", "count"},
	{"deepweb.refunded", "count"},
	{"httpapi.roundtrip_s", "s"},
	{"httpapi.overhead_s", "s"},
	{"sample.build_s", "s"},
	{"sample.queries", "count"},
	{"querypool.generate_s", "s"},
	{"querypool.size", "count"},
	{"crawler.setup_self_s", "s"},
	{"crawler.loop_self_s", "s"},
	{"crawler.step_p50_ms", "ms"},
	{"crawler.step_tail_ms", "ms"},
	{"crawler.step_tail_pct", "%"},
	{"crawler.step_n", "count"},
	{"crawler.useful_query_frac", "fraction"},
	{"lazyheap.repushes", "count"},
	{"estimator.calls", "count"},
	{"estimator.abs_err_mean", "records"},
	{"match.replay_s", "s"},
	{"match.calls", "count"},
	{"match.precision", "fraction"},
	{"durable.append_s", "s"},
	{"durable.appends", "count"},
	{"durable.wal_mb", "MB"},
	{"durable.round_s", "s"},
	{"durable.compactions", "count"},
	{"durable.fsync_s", "s"},
	{"durable.close_s", "s"},
	{"durable.snapshot_mb", "MB"},
	{"durable.recover_s", "s"},
	{"enrich.apply_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.steal_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"trace.unattributed_frac", "fraction"},
}

// measureTraced repeats a traced crawl between two untraced ones until the
// measuring time has passed, and reports the median of each per-layer
// metric. The traced crawl must reproduce the untraced crawls' digest.
func measureTraced(opt *options, sc scale, in *inputs, ref *digestRef, stderr io.Writer) *result {
	w := opt.workload
	res := &result{Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for clock := newRunClock(opt.seconds); clock.another(); {
		res.Attempted++
		err := func() error {
			plain, err := referenceCrawl(opt, sc, in)
			if err != nil {
				return err
			}
			if err := ref.check(plain.digest); err != nil {
				return err
			}
			p := newCrawlPaths(filepath.Join(opt.work, "traced", w.name))
			runID := fmt.Sprintf("%s/s%d/%d", w.name, opt.seed, res.Attempted)
			tr, err := tracedCrawl(w, sc, in, opt.seed, p, runID)
			if err != nil {
				return err
			}
			if tr.digest != plain.digest {
				return fmt.Errorf("check: traced digest %s differs from untraced %s", tr.digest, plain.digest)
			}
			// A second untraced crawl brackets the traced one in time, so
			// a host that speeds up or slows down meanwhile does not read
			// as tracing overhead.
			after, err := referenceCrawl(opt, sc, in)
			if err != nil {
				return err
			}
			if err := ref.check(after.digest); err != nil {
				return err
			}
			untraced := (plain.wall() + after.wall()).Seconds() / 2
			tr.metrics["trace.overhead_frac"] = tr.wall.Seconds()/untraced - 1
			fmt.Fprintf(stderr, "traced %d: untraced %.3fs and %.3fs, traced %.3fs, digest %s\n",
				res.Attempted, plain.wall().Seconds(), after.wall().Seconds(), tr.wall.Seconds(), tr.digest)
			for name, v := range tr.metrics {
				values[name] = append(values[name], v)
			}
			return nil
		}()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced crawl %d: %v\n", w.name, res.Attempted, err)
			res.Failed++
			break
		}
	}
	res.Correct = res.Failed == 0
	if res.Correct {
		for _, m := range perLayer {
			v, ok := values[m.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: traced run produced no %s\n", m.name)
				res.Correct = false
				continue
			}
			res.Metrics[m.name] = metric{Value: median(v), Unit: m.unit}
		}
	}
	return res
}

// referenceCrawl runs one untraced crawl. On yelp-remote it serves the
// hidden table for that crawl alone, started before and closed after the
// timed window, so that a traced crawl in the same run can serve a
// decorated one.
func referenceCrawl(opt *options, sc scale, in *inputs) (r *crawlRun, err error) {
	w := opt.workload
	if w.data == "yelp" {
		srv, err := startServer(in.hidden, in.rankColumn, nil)
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := srv.close(); err == nil && cerr != nil {
				err = cerr
			}
		}()
		in.url = srv.url
	}
	return untracedCrawl(w, sc, in, opt.seed, newCrawlPaths(filepath.Join(opt.work, "crawl", w.name)))
}

// runClock paces a run's repetitions within its measuring time: another
// repetition starts only if, taking as long as the last one, it ends no
// more than half a repetition past the measuring time. The first always
// runs. A run therefore ends within half a repetition of its measuring
// time, on either side, and spends on average the whole of it measuring:
// stopping whenever the next repetition would overrun left a quarter of a
// dblp-mapped run (about 10 s a crawl in 40 s) unmeasured.
type runClock struct {
	start, last time.Time
	budget      time.Duration
	runs        int
}

func newRunClock(budget time.Duration) *runClock {
	now := time.Now()
	return &runClock{start: now, last: now, budget: budget}
}

func (c *runClock) another() bool {
	now := time.Now()
	ok := c.runs == 0 || now.Add(now.Sub(c.last)/2).Sub(c.start) <= c.budget
	c.last = now
	c.runs++
	return ok
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
