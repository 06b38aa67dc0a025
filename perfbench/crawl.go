package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/relational"
)

// crawlRun is the measurement of one untraced crawl through engine.Run.
type crawlRun struct {
	setup    time.Duration // engine.LoadTable to the first absorbed query
	crawl    time.Duration // first absorbed query to the written output
	cpu      time.Duration
	peakHeap uint64
	steal    time.Duration
	coverage float64
	okFrac   float64
	digest   string
}

func (r *crawlRun) wall() time.Duration { return r.setup + r.crawl }

// metrics are the crawl's end-to-end metric values by name.
func (r *crawlRun) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":         r.setup.Seconds(),
		"crawl_s":         r.crawl.Seconds(),
		"cpu_s":           r.cpu.Seconds(),
		"peak_heap_mb":    mb(r.peakHeap),
		"coverage":        r.coverage,
		"attempt_ok_frac": r.okFrac,
	}
}

// untracedCrawl runs one crawl of w end to end, exactly as cmd/smartcrawl
// would: load the local table, engine.Run, write the enriched table. It
// then checks the crawl's output.
func untracedCrawl(w *workload, sc scale, in *inputs, seed uint64, p crawlPaths) (*crawlRun, error) {
	if err := p.reset(); err != nil {
		return nil, err
	}
	// Every crawl starts from the memory state of a fresh process, as a
	// CLI run does: nothing left live, no freed pages still mapped.
	debug.FreeOSMemory()
	heap := watchHeap()
	steal0, cpu0 := hostSteal(), processCPU()
	start := time.Now()
	var (
		first time.Time
		req   engine.Request
	)
	out, err := func() (*engine.Outcome, error) {
		local, err := engine.LoadTable(in.local, "local")
		if err != nil {
			return nil, err
		}
		req = w.newRequest(sc, in, seed, local, p)
		req.OnStep = func(crawler.Step) {
			if first.IsZero() {
				first = time.Now()
			}
		}
		out, err := engine.Run(&req)
		if err != nil {
			return nil, err
		}
		return out, writeOutput(p.output, out.Local)
	}()
	end := time.Now()
	cpu1, steal1 := processCPU(), hostSteal()
	peak := heap.done()
	if err != nil {
		return nil, err
	}
	if first.IsZero() {
		return nil, errors.New("the crawl absorbed no query")
	}
	digest, err := outputDigest(out.Result, p.output)
	if err != nil {
		return nil, err
	}
	return &crawlRun{
		setup:    first.Sub(start),
		crawl:    end.Sub(first),
		cpu:      cpu1 - cpu0,
		peakHeap: peak,
		steal:    steal1 - steal0,
		coverage: out.Report.Coverage,
		okFrac:   attemptOKFrac(out.Result),
		digest:   digest,
	}, checkCrawl(&req, out.Result, out.Local.Len())
}

func writeOutput(path string, t *relational.Table) error {
	return writeFile(path, func(w io.Writer) error { return engine.WriteTable(w, t, false) })
}

// outputDigest hashes the issued-query log and the enriched table: two
// crawls with the same digest issued the same queries in the same order
// and produced the same table.
func outputDigest(res *crawler.Result, outputPath string) (string, error) {
	h := sha256.New()
	bw := bufio.NewWriter(h)
	for _, s := range res.Steps {
		fmt.Fprintf(bw, "%d\t%s\n", s.Iface, s.Query.Key())
	}
	bw.WriteString("--\n")
	f, err := os.Open(outputPath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := io.Copy(bw, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", outputPath, err)
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// attemptOKFrac is absorbed over dispatched query attempts, or 1 when the
// crawl ran without failure accounting (no fault tolerance, so no failure).
func attemptOKFrac(res *crawler.Result) float64 {
	r := res.Resilience
	if r == nil || r.Dispatched == 0 {
		return 1
	}
	return float64(r.Absorbed) / float64(r.Dispatched)
}

// checkCrawl verifies the accounting of a finished crawl and, for a
// journaled crawl, its recovery.
func checkCrawl(req *engine.Request, res *crawler.Result, localLen int) error {
	if err := checkAccounting(req.Budget, res); err != nil {
		return err
	}
	if req.Checkpoint == "" {
		return nil
	}
	return checkRecovery(req, localLen, res)
}

// checkAccounting verifies that every dispatched query has exactly one
// outcome and that the settled charges equal the budget: every workload
// exhausts its budget before its pool.
func checkAccounting(budget int, res *crawler.Result) error {
	if len(res.Steps) != res.QueriesIssued {
		return fmt.Errorf("check: %d steps logged but %d queries absorbed", len(res.Steps), res.QueriesIssued)
	}
	settled := res.QueriesIssued
	if r := res.Resilience; r != nil {
		if !r.Accounted() {
			return fmt.Errorf("check: accounting identity broken: %s", r)
		}
		if r.Absorbed != res.QueriesIssued {
			return fmt.Errorf("check: %d absorbed but %d queries issued", r.Absorbed, res.QueriesIssued)
		}
		settled += r.Requeued + r.Forfeited - r.Refunded
	}
	if settled != budget {
		return fmt.Errorf("check: settled charges %d != budget %d", settled, budget)
	}
	return nil
}

// checkRecovery verifies that durable.Recover on the finished checkpoint
// returns the run's coverage and step log.
func checkRecovery(req *engine.Request, localLen int, res *crawler.Result) error {
	rec, err := durable.Recover(req.Checkpoint, req.WAL, localLen)
	if err != nil {
		return fmt.Errorf("check: recovering the final checkpoint: %w", err)
	}
	return sameCrawl(rec.Result, res)
}

// sameCrawl reports whether a recovered result has the run's coverage and
// step log.
func sameCrawl(got, want *crawler.Result) error {
	if got == nil {
		return errors.New("check: recovery found no crawl state")
	}
	if got.CoveredCount != want.CoveredCount {
		return fmt.Errorf("check: recovered coverage %d != run coverage %d", got.CoveredCount, want.CoveredCount)
	}
	if len(got.Steps) != len(want.Steps) {
		return fmt.Errorf("check: recovered %d steps, run has %d", len(got.Steps), len(want.Steps))
	}
	for i := range got.Steps {
		if got.Steps[i].Query.Key() != want.Steps[i].Query.Key() {
			return fmt.Errorf("check: recovered step %d is %q, run issued %q",
				i, got.Steps[i].Query.Key(), want.Steps[i].Query.Key())
		}
	}
	return nil
}
