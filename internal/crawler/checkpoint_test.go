package crawler_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
)

func checkpointSetup(t *testing.T) (*crawler.Env, *sample.Sample) {
	t.Helper()
	env, in, _ := dblpEnv(t, dataset.DBLPConfig{
		CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, DeltaD: 40, Seed: 51,
	}, 50, nil)
	return env, sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(13))
}

// TestResumeEqualsUninterrupted is the core checkpoint guarantee: a crawl
// of b1 queries, saved, reloaded, and resumed for b2 more must match an
// uninterrupted b1+b2 crawl step for step.
func TestResumeEqualsUninterrupted(t *testing.T) {
	const b1, b2 = 30, 50
	env, smp := checkpointSetup(t)

	// Uninterrupted reference.
	ref, err := crawler.NewSmart(env, crawler.SmartConfig{
		Sample: smp, Estimator: estimator.Biased{}, AlphaFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(b1 + b2)
	if err != nil {
		t.Fatal(err)
	}

	// Session 1.
	c1, _ := crawler.NewSmart(env, crawler.SmartConfig{
		Sample: smp, Estimator: estimator.Biased{}, AlphaFallback: true,
	})
	res1, err := c1.Run(b1)
	if err != nil {
		t.Fatal(err)
	}

	// Save + load round trip.
	var buf bytes.Buffer
	if err := crawler.SaveResult(&buf, res1); err != nil {
		t.Fatal(err)
	}
	loaded, err := crawler.LoadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Session 2, resumed.
	c2, _ := crawler.NewSmart(env, crawler.SmartConfig{
		Sample: smp, Estimator: estimator.Biased{}, AlphaFallback: true,
		Resume: loaded,
	})
	res2, err := c2.Run(b2)
	if err != nil {
		t.Fatal(err)
	}

	if res2.CoveredCount != refRes.CoveredCount {
		t.Fatalf("resumed coverage %d != uninterrupted %d",
			res2.CoveredCount, refRes.CoveredCount)
	}
	if res2.QueriesIssued != refRes.QueriesIssued {
		t.Fatalf("resumed issued %d != uninterrupted %d",
			res2.QueriesIssued, refRes.QueriesIssued)
	}
	if len(res2.Steps) != len(refRes.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(res2.Steps), len(refRes.Steps))
	}
	for i := range refRes.Steps {
		if res2.Steps[i].Query.Key() != refRes.Steps[i].Query.Key() {
			t.Fatalf("step %d differs: %v vs %v",
				i, res2.Steps[i].Query, refRes.Steps[i].Query)
		}
	}
	for d, covered := range refRes.Covered {
		if res2.Covered[d] != covered {
			t.Fatalf("covered[%d] differs", d)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	env, smp := checkpointSetup(t)
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp, Estimator: estimator.Biased{}})
	res, err := c.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := crawler.SaveResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := crawler.LoadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoveredCount != res.CoveredCount || got.QueriesIssued != res.QueriesIssued {
		t.Fatalf("round trip lost counters: %+v vs %+v", got, res)
	}
	if len(got.Crawled) != len(res.Crawled) {
		t.Fatalf("crawled count %d vs %d", len(got.Crawled), len(res.Crawled))
	}
	for d, h := range res.Matches {
		g, ok := got.Matches[d]
		if !ok || g.ID != h.ID || g.Value(0) != h.Value(0) {
			t.Fatalf("match for %d lost in round trip", d)
		}
	}
	for i := range res.Steps {
		if got.Steps[i].Query.Key() != res.Steps[i].Query.Key() ||
			got.Steps[i].ResultSize != res.Steps[i].ResultSize {
			t.Fatalf("step %d differs after round trip", i)
		}
	}
}

func TestLoadResultRejectsBadInput(t *testing.T) {
	if _, err := crawler.LoadResult(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := crawler.LoadResult(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version should fail")
	}
	// Match referencing an uncrawled record.
	bad := `{"version":1,"covered":[false],"matches":[{"local":0,"hidden":7}]}`
	if _, err := crawler.LoadResult(strings.NewReader(bad)); err == nil {
		t.Fatal("dangling match should fail")
	}
}

func TestResumeRejectsWrongLocalSize(t *testing.T) {
	env, smp := checkpointSetup(t)
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{
		Sample: smp, Estimator: estimator.Biased{},
		Resume: &crawler.Result{Covered: make([]bool, 3)},
	})
	if _, err := c.Run(5); err == nil {
		t.Fatal("mismatched checkpoint should fail")
	}
}

func TestSaveResultDeterministicBytes(t *testing.T) {
	env, smp := checkpointSetup(t)
	c, _ := crawler.NewSmart(env, crawler.SmartConfig{Sample: smp, Estimator: estimator.Biased{}})
	res, err := c.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := crawler.SaveResult(&a, res); err != nil {
		t.Fatal(err)
	}
	if err := crawler.SaveResult(&b, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("checkpoint bytes must be deterministic")
	}
}

// referenceSaveResultSeq is the checkpoint encoder SnapshotEncoder
// replaced — one reflection encode of the whole state per call, wrapped
// by json.Encoder — kept as the oracle of its bytes; only the wire types
// are named through export_test.go.
func referenceSaveResultSeq(w io.Writer, res *crawler.Result, journalSeq uint64) error {
	cf := crawler.CheckpointFile{
		Version:       crawler.CheckpointVersion,
		CoveredCount:  res.CoveredCount,
		QueriesIssued: res.QueriesIssued,
		Covered:       res.Covered,
		Resilience:    res.Resilience,
	}
	for _, s := range res.Steps {
		cf.Steps = append(cf.Steps, crawler.CheckpointStep{
			Query:             s.Query,
			EstimatedBenefit:  s.EstimatedBenefit,
			NewlyCovered:      s.NewlyCovered,
			CumulativeCovered: s.CumulativeCovered,
			ResultSize:        s.ResultSize,
			NewHidden:         s.NewHidden,
			Iface:             s.Iface,
		})
	}
	for id, r := range res.Crawled {
		cf.Crawled = append(cf.Crawled, crawler.WireRecord{ID: id, Values: r.Values})
	}
	for d, h := range res.Matches {
		cf.Matches = append(cf.Matches, crawler.MatchPair{Local: d, Hidden: h.ID})
	}
	// Sort the map-derived sections so checkpoints are byte-deterministic
	// (stable diffs, content-addressable storage).
	sort.Slice(cf.Crawled, func(a, b int) bool { return cf.Crawled[a].ID < cf.Crawled[b].ID })
	sort.Slice(cf.Matches, func(a, b int) bool { return cf.Matches[a].Local < cf.Matches[b].Local })
	payload, err := json.Marshal(cf)
	if err != nil {
		return fmt.Errorf("crawler: encoding checkpoint: %w", err)
	}
	sum := crc32.ChecksumIEEE(payload)
	return json.NewEncoder(w).Encode(crawler.CheckpointV2{
		Version:    crawler.CheckpointVersion,
		JournalSeq: journalSeq,
		CRC32:      &sum,
		Payload:    payload,
	})
}

// diffReference reports how got differs from what the reference encoder
// writes for res at seq; nil when the bytes are identical.
func diffReference(got []byte, res *crawler.Result, seq uint64) error {
	var want bytes.Buffer
	if err := referenceSaveResultSeq(&want, res, seq); err != nil {
		return fmt.Errorf("reference encoder: %w", err)
	}
	w := want.Bytes()
	if bytes.Equal(got, w) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(w) && got[i] == w[i] {
		i++
	}
	around := func(b []byte) string { return string(b[max(i-40, 0):min(i+40, len(b))]) }
	return fmt.Errorf("encoder bytes differ from the reference at offset %d (%d vs %d bytes):\n got  %q\n want %q",
		i, len(got), len(w), around(got), around(w))
}

// encodeBoth writes res with enc and with the reference encoder and
// fails unless both error or both write the same bytes.
func encodeBoth(t *testing.T, what string, enc *crawler.SnapshotEncoder, res *crawler.Result, seq uint64) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := enc.Encode(&got, res, seq)
	wantErr := referenceSaveResultSeq(&want, res, seq)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: encoder error %v, reference error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if err := diffReference(got.Bytes(), res, seq); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// referenceSink forwards to a durable.Sink and, after every compaction,
// requires the snapshot file to hold the reference bytes for the live
// Result — a mismatch aborts the crawl with an error.
type referenceSink struct {
	*durable.Sink
	path    string
	checked int // compactions verified so far
}

func openReferenceSink(t *testing.T, opts durable.Options) *referenceSink {
	t.Helper()
	s, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &referenceSink{Sink: s, path: opts.Snapshot}
}

func (s *referenceSink) RoundCompleted(res *crawler.Result) error {
	if err := s.Sink.RoundCompleted(res); err != nil {
		return err
	}
	if s.Compactions() == s.checked {
		return nil
	}
	return s.check(res)
}

// check compares the snapshot on disk with the reference encoding of res
// at the journal sequence the snapshot carries.
func (s *referenceSink) check(res *crawler.Result) error {
	s.checked = s.Compactions()
	data, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	_, seq, err := crawler.LoadResultSeq(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("snapshot after compaction %d: %w", s.checked, err)
	}
	if err := diffReference(data, res, seq); err != nil {
		return fmt.Errorf("snapshot after compaction %d: %w", s.checked, err)
	}
	return nil
}

// close compacts the final state and checks it.
func (s *referenceSink) close(t *testing.T, res *crawler.Result) {
	t.Helper()
	if err := s.Close(res); err != nil {
		t.Fatal(err)
	}
	if err := s.check(res); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotEncoderMatchesReference: the incremental encoder writes the
// reference encoder's bytes for every state a crawl reaches — compacting
// after every round, across a resume (a new Result, first written by the
// compaction on open), federated with forfeits in the resilience report,
// and on hand-built edge cases.
func TestSnapshotEncoderMatchesReference(t *testing.T) {
	t.Run("smart crawl compacting every round", func(t *testing.T) {
		env, smp := checkpointSetup(t)
		dir := t.TempDir()
		sink := openReferenceSink(t, durable.Options{
			Snapshot: filepath.Join(dir, "cp.json"), Journal: filepath.Join(dir, "cp.wal"),
			Every: 1, LocalLen: env.Local.Len(),
		})
		c, err := crawler.NewSmart(env, crawler.SmartConfig{
			Sample: smp, Estimator: estimator.Biased{}, BatchSize: 4, Durability: sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		sink.close(t, res)
		if sink.checked < 15 || len(res.Crawled) == 0 {
			t.Fatalf("only %d compactions over %d crawled records checked", sink.checked, len(res.Crawled))
		}
	})

	t.Run("resume", func(t *testing.T) {
		env, smp := checkpointSetup(t)
		dir := t.TempDir()
		opts := durable.Options{
			Snapshot: filepath.Join(dir, "cp.json"), Journal: filepath.Join(dir, "cp.wal"),
			Every: 10, LocalLen: env.Local.Len(),
		}
		cfg := crawler.SmartConfig{Sample: smp, Estimator: estimator.Biased{}, BatchSize: 4}
		// Session 1 ends like a failed crawl: its last steps stay in the
		// journal, for the next Open to fold into the snapshot.
		sink1 := openReferenceSink(t, opts)
		cfg.Durability = sink1
		c1, err := crawler.NewSmart(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c1.Run(30); err != nil {
			t.Fatal(err)
		}
		if err := sink1.Close(nil); err != nil {
			t.Fatal(err)
		}
		opts.Every = 1
		sink2 := openReferenceSink(t, opts)
		rec := sink2.Recovered()
		if rec.JournalRecords == 0 || rec.Result == nil {
			t.Fatalf("recovery replayed %d journal records: no compaction on open to check", rec.JournalRecords)
		}
		if err := sink2.check(rec.Result); err != nil {
			t.Fatalf("compaction on open: %v", err)
		}
		cfg.Durability, cfg.Resume, cfg.ResumePending = sink2, rec.Result, rec.Pending
		c2, err := crawler.NewSmart(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c2.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		sink2.close(t, res)
		if res == rec.Result || sink2.checked < 5 {
			t.Fatalf("resume not exercised: %d compactions checked", sink2.checked)
		}
	})

	t.Run("federated with forfeits", func(t *testing.T) {
		env, in, db := dblpEnv(t, dataset.DBLPConfig{
			CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: 51,
		}, 50, nil)
		profile, err := deepweb.ParseFaultProfile("severe")
		if err != nil {
			t.Fatal(err)
		}
		faulty := func(s deepweb.Searcher, seed uint64) deepweb.Searcher {
			p := profile
			p.Seed = seed
			return deepweb.NewFaulty(s, p)
		}
		narrow := hidden.New(in.Hidden, env.Tokenizer, 20,
			hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
		ifaces := []crawler.Interface{
			{Name: "wide", Searcher: faulty(db, 3), Sample: sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(13))},
			{Name: "narrow", Searcher: faulty(narrow, 4), Sample: sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(14))},
		}
		env.Searcher = nil
		dir := t.TempDir()
		sink := openReferenceSink(t, durable.Options{
			Snapshot: filepath.Join(dir, "cp.json"), Journal: filepath.Join(dir, "cp.wal"),
			Every: 1, LocalLen: env.Local.Len(),
		})
		c, err := crawler.NewFederatedSmart(env, crawler.SmartConfig{
			BatchSize: 4, MaxAttempts: 2, Durability: sink,
		}, ifaces)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		sink.close(t, res)
		maxIface := 0
		for _, s := range res.Steps {
			maxIface = max(maxIface, s.Iface)
		}
		if maxIface == 0 || res.Resilience == nil || len(res.Resilience.ForfeitedQueries) == 0 {
			t.Fatalf("case not exercised: highest step interface %d, resilience %+v", maxIface, res.Resilience)
		}
	})

	t.Run("edge cases", func(t *testing.T) {
		tricky := []string{
			`quote " and backslash \\`, "control \x00\x01\x1f\t\n\x7f", "<b>&amp;</b>",
			"separators \u2028 \u2029", "invalid \xff\xfe\xc3 utf-8", "",
		}
		rec := func(id int, vals ...string) *relational.Record { return &relational.Record{ID: id, Values: vals} }
		full := func() *crawler.Result {
			return &crawler.Result{
				Covered: []bool{true, false, true}, CoveredCount: 2, QueriesIssued: 4,
				Steps: []crawler.Step{
					{Query: deepweb.Query{tricky[0], tricky[2]}, EstimatedBenefit: 2.5, NewlyCovered: 1, CumulativeCovered: 1, ResultSize: 2, NewHidden: []int{9, 3}},
					{Query: deepweb.Query{tricky[3]}, EstimatedBenefit: 1e-9, ResultSize: 0, NewHidden: []int{}},
					{Query: deepweb.Query{tricky[4]}, EstimatedBenefit: -0.0, NewlyCovered: 1, CumulativeCovered: 2, ResultSize: 1, NewHidden: nil, Iface: 2},
				},
				Crawled: map[int]*relational.Record{9: rec(9, tricky...), 3: rec(3, tricky[1]), -4: rec(-4), 70: rec(70, "")},
				Matches: map[int]*relational.Record{2: rec(9, "ignored"), 0: rec(3)},
				Resilience: &crawler.Resilience{
					Dispatched: 6, Absorbed: 4, Forfeited: 2, ForfeitedQueries: []string{tricky[0], tricky[4]},
				},
			}
		}
		cases := []struct {
			name string
			res  *crawler.Result
		}{
			{"zero Result", &crawler.Result{}},
			{"nil Covered", &crawler.Result{CoveredCount: 0, Crawled: map[int]*relational.Record{1: rec(1, "a")}}},
			{"empty Covered", &crawler.Result{Covered: []bool{}}},
			{"no steps crawled or matches", &crawler.Result{
				Covered: make([]bool, 4), Steps: []crawler.Step{},
				Crawled: map[int]*relational.Record{}, Matches: map[int]*relational.Record{},
			}},
			{"full", full()},
		}
		for _, c := range cases {
			var enc crawler.SnapshotEncoder
			encodeBoth(t, c.name, &enc, c.res, 0)
			encodeBoth(t, c.name+", written again", &enc, c.res, 1<<40)
		}

		// Grow one Result write by write, the way a crawl does, with one
		// encoder throughout — which first wrote another Result of the
		// same length.
		var enc crawler.SnapshotEncoder
		other := full()
		other.Steps[0].Query = deepweb.Query{"other"}
		encodeBoth(t, "another Result", &enc, other, 0)
		res := full()
		encodeBoth(t, "reset: a different Result", &enc, res, 1)
		res.Steps = append(res.Steps, crawler.Step{Query: deepweb.Query{tricky[1]}, ResultSize: 3, NewHidden: []int{1, 100, 5}})
		for _, id := range []int{1, 100, 5} {
			res.Crawled[id] = rec(id, tricky[id%len(tricky)])
		}
		res.QueriesIssued++
		encodeBoth(t, "grow: new step and records", &enc, res, 2)
		res.Crawled[50] = rec(50, "outside the step trace")
		res.Covered[1], res.CoveredCount = true, 3
		res.Matches[1] = res.Crawled[50]
		encodeBoth(t, "grow: record without a step", &enc, res, 3)
		res.Resilience = nil
		encodeBoth(t, "grow: resilience dropped", &enc, res, 4)
		delete(res.Crawled, 100)
		encodeBoth(t, "reset: record left Crawled", &enc, res, 5)
		res.Steps = res.Steps[:1]
		encodeBoth(t, "reset: steps shrank", &enc, res, 6)
		res.Steps = append(res.Steps, crawler.Step{Query: deepweb.Query{"nan"}, EstimatedBenefit: math.NaN()})
		var sink bytes.Buffer
		if err := enc.Encode(&sink, res, 7); err == nil {
			t.Fatal("NaN benefit: encoder wrote a checkpoint")
		}
		if err := referenceSaveResultSeq(&sink, res, 7); err == nil {
			t.Fatal("NaN benefit: reference wrote a checkpoint")
		}
		res.Steps = res.Steps[:1]
		encodeBoth(t, "after a failed write", &enc, res, 8)
	})
}
