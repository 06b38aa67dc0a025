package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
)

// Span names. Every name is a layer boundary the benchmark's own code
// crosses; nothing inside the program is instrumented.
const (
	spanRun          = "run"
	spanLoad         = "relational.load"
	spanWrite        = "relational.write"
	spanCorpusBuild  = "index.corpus_build"
	spanCorpusOpen   = "index.corpus_open"
	spanHiddenBuild  = "hidden.build"
	spanHiddenSearch = "hidden.search"
	spanSearch       = "deepweb.search"
	spanRoundtrip    = "httpapi.roundtrip"
	spanSample       = "sample.build"
	spanDurableOpen  = "durable.open"
	spanAppend       = "durable.append"
	spanRound        = "durable.round"
	spanClose        = "durable.close"
	spanRecover      = "durable.recover"
	spanEnrich       = "enrich.enrich"
	spanCrawl        = "crawler.run"
)

// span is one timed call across a layer boundary. Times are offsets from
// the recorder's origin. Round is the selection round a search ran in (0
// before the first round, e.g. keyword sampling).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Round  int64         `json:"round,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps a traced run's spans in memory; they are written out once
// the run ends. Safe for concurrent use: searches arrive from the
// dispatcher's workers and from the server's handlers.
type recorder struct {
	run    string
	origin time.Time
	ids    atomic.Int64
	// rounds counts the crawl's selection rounds. The crawler counts a
	// round just before it dispatches it, and finishes it before it
	// selects the next one, so a search reads the round it runs in.
	rounds *obs.Counter
	// searchParent is the span searches are issued under (the crawl).
	searchParent atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string, rounds *obs.Counter) *recorder {
	return &recorder{run: run, origin: time.Now(), rounds: rounds}
}

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// open starts a span; the returned function ends and records it.
func (r *recorder) open(name string, parent int64) (id int64, end func()) {
	s := span{ID: r.ids.Add(1), Parent: parent, Run: r.run, Name: name, Start: r.now()}
	return s.ID, func() {
		s.End = r.now()
		r.add(s)
	}
}

// record times fn as a span named name under parent.
func (r *recorder) record(name string, parent int64, fn func() error) error {
	_, end := r.open(name, parent)
	defer end()
	return fn()
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type parentKey struct{}

// spanSearcher times every search through the searcher it wraps. It keeps
// the deepweb.ContextSearcher method, because deepweb.SearchWith
// type-asserts it to forward deadlines, and passes its span down the
// context so a decorator below it on the same call records it as parent.
type spanSearcher struct {
	s    deepweb.Searcher
	rec  *recorder
	name string
}

// Search carries the span down a background context: every searcher below
// behaves the same with it as without a context.
func (t *spanSearcher) Search(q deepweb.Query) ([]*relational.Record, error) {
	return t.SearchCtx(context.Background(), q)
}

func (t *spanSearcher) SearchCtx(ctx context.Context, q deepweb.Query) ([]*relational.Record, error) {
	parent := t.rec.searchParent.Load()
	if p, ok := ctx.Value(parentKey{}).(int64); ok {
		parent = p
	}
	s := span{ID: t.rec.ids.Add(1), Parent: parent, Run: t.rec.run, Name: t.name,
		Round: t.rec.rounds.Value(), Start: t.rec.now()}
	recs, err := deepweb.SearchWith(context.WithValue(ctx, parentKey{}, s.ID), t.s, q)
	s.End = t.rec.now()
	t.rec.add(s)
	return recs, err
}

func (t *spanSearcher) K() int { return t.s.K() }

// spanSink times the journal calls of the crawl's durability sink.
type spanSink struct {
	next crawler.DurabilitySink
	rec  *recorder
}

func (s *spanSink) call(name string, fn func() error) error {
	return s.rec.record(name, s.rec.searchParent.Load(), fn)
}

func (s *spanSink) RoundSelected(sel []crawler.PendingQuery, res *crawler.Result) error {
	return s.call(spanAppend, func() error { return s.next.RoundSelected(sel, res) })
}

func (s *spanSink) StepAbsorbed(res *crawler.Result, step crawler.Step, newlyCovered []int) error {
	return s.call(spanAppend, func() error { return s.next.StepAbsorbed(res, step, newlyCovered) })
}

func (s *spanSink) QueryRequeued(q deepweb.Query, attempt int, charged bool, res *crawler.Result) error {
	return s.call(spanAppend, func() error { return s.next.QueryRequeued(q, attempt, charged, res) })
}

func (s *spanSink) QueryForfeited(q deepweb.Query, attempts int, charged bool, res *crawler.Result) error {
	return s.call(spanAppend, func() error { return s.next.QueryForfeited(q, attempts, charged, res) })
}

func (s *spanSink) BudgetStopped(q deepweb.Query, res *crawler.Result) error {
	return s.call(spanAppend, func() error { return s.next.BudgetStopped(q, res) })
}

func (s *spanSink) RoundCompleted(res *crawler.Result) error {
	return s.call(spanRound, func() error { return s.next.RoundCompleted(res) })
}

// spanCrawler times Run of the crawler enrich.Enrich drives, which splits
// the enrich span into the crawl and enrichment proper.
type spanCrawler struct {
	c      crawler.Crawler
	rec    *recorder
	parent int64
}

func (s *spanCrawler) Name() string { return s.c.Name() }

func (s *spanCrawler) Run(budget int) (*crawler.Result, error) {
	id, end := s.rec.open(spanCrawl, s.parent)
	defer end()
	s.rec.searchParent.Store(id)
	return s.c.Run(budget)
}
