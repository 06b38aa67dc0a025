package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/relational"
)

// world simulates the merge stage's side of the sink contract: it mutates
// a Result exactly the way the crawl does, then fires the callback.
type world struct {
	res    *crawler.Result
	nextID int
}

func newWorld(localLen int) *world {
	return &world{
		res: &crawler.Result{
			Covered: make([]bool, localLen),
			Matches: map[int]*relational.Record{},
			Crawled: map[int]*relational.Record{},
		},
		nextID: 100,
	}
}

func q(s string) deepweb.Query { return deepweb.Query{s} }

func pq(benefit float64, keys ...string) []crawler.PendingQuery {
	sel := make([]crawler.PendingQuery, len(keys))
	for i, k := range keys {
		sel[i] = crawler.PendingQuery{Query: q(k), Benefit: benefit - float64(i)/10}
	}
	return sel
}

// absorb applies one query result covering local record d (-1 covers
// nothing) via one freshly crawled hidden record, then notifies the sink.
func (w *world) absorb(t *testing.T, s *Sink, key string, d int) {
	t.Helper()
	w.nextID++
	hid := w.nextID
	w.res.Crawled[hid] = &relational.Record{ID: hid, Values: []string{key, "v"}}
	var newly []int
	nc := 0
	if d >= 0 {
		w.res.Covered[d] = true
		w.res.CoveredCount++
		w.res.Matches[d] = w.res.Crawled[hid]
		newly = []int{d}
		nc = 1
	}
	w.res.QueriesIssued++
	step := crawler.Step{
		Query: q(key), EstimatedBenefit: 1.5, NewlyCovered: nc,
		CumulativeCovered: w.res.CoveredCount, ResultSize: 1, NewHidden: []int{hid},
	}
	w.res.Steps = append(w.res.Steps, step)
	if err := s.StepAbsorbed(w.res, step, newly); err != nil {
		t.Fatal(err)
	}
}

func paths(t *testing.T) (snap, wal string) {
	dir := t.TempDir()
	return filepath.Join(dir, "cp.bin"), filepath.Join(dir, "cp.wal")
}

func TestSinkJournalThenRecover(t *testing.T) {
	snap, wal := paths(t)
	opts := Options{Snapshot: snap, Journal: wal, LocalLen: 4}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(4)
	if err := s.RoundSelected(pq(2, "a", "b", "c"), w.res); err != nil {
		t.Fatal(err)
	}
	w.absorb(t, s, "a", 0)
	if err := s.QueryRequeued(q("b"), 1, true, w.res); err != nil {
		t.Fatal(err)
	}
	if err := s.BudgetStopped(q("c"), w.res); err != nil {
		t.Fatal(err)
	}
	if err := s.RoundCompleted(w.res); err != nil {
		t.Fatal(err)
	}
	if err := s.RoundSelected(pq(1.2, "b"), w.res); err != nil {
		t.Fatal(err)
	}
	if err := s.QueryForfeited(q("b"), 2, false, w.res); err != nil {
		t.Fatal(err)
	}
	if err := s.RoundCompleted(w.res); err != nil {
		t.Fatal(err)
	}
	// Crash-style close: no final state, journal left on disk.
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(snap, wal, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result == nil {
		t.Fatal("journal did not recover")
	}
	if !bytes.Equal(canonical(t, rec.Result), canonical(t, w.res)) {
		t.Error("recovered state differs from the live state")
	}
	if rec.Charged != 2 { // the absorbed step + the billed requeue
		t.Errorf("charged=%d, want 2", rec.Charged)
	}
	if len(rec.Pending) != 0 {
		t.Errorf("pending=%v, want none", rec.Pending)
	}
}

func TestSinkCompactOnOpenAndCadence(t *testing.T) {
	snap, wal := paths(t)
	opts := Options{Snapshot: snap, Journal: wal, LocalLen: 4, Every: 2, Sync: SyncRound}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(4)
	if err := s.RoundSelected(pq(2, "a", "b"), w.res); err != nil {
		t.Fatal(err)
	}
	w.absorb(t, s, "a", 0)
	w.absorb(t, s, "b", 1)
	if err := s.RoundCompleted(w.res); err != nil {
		t.Fatal(err)
	}
	if s.Compactions() != 1 {
		t.Fatalf("compactions=%d, want 1 (Every=2 reached)", s.Compactions())
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	// The compaction folded everything into the snapshot and reset the
	// journal down to its begin record.
	res, seq, err := loadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 2 || seq == 0 {
		t.Errorf("snapshot issued=%d seq=%d, want 2 and a nonzero seq", res.QueriesIssued, seq)
	}
	recs, torn, err := readJournalFile(wal)
	if err != nil || torn {
		t.Fatalf("journal after compact: torn=%t err=%v", torn, err)
	}
	if len(recs) != 1 || recs[0].Kind != KindBegin {
		t.Fatalf("journal after compact holds %d records (first %q), want just begin",
			len(recs), recs[0].Kind)
	}
	// Re-open: the prior state comes back and new work appends cleanly.
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovered()
	if rec.Result == nil || rec.Result.QueriesIssued != 2 || rec.Charged != 2 {
		t.Fatalf("reopen recovered %+v, want 2 issued / 2 charged", rec)
	}
	if err := s2.RoundSelected(pq(1, "d"), rec.Result); err != nil {
		t.Fatal(err)
	}
	w2 := &world{res: rec.Result, nextID: 200}
	w2.absorb(t, s2, "d", 2)
	if err := s2.Close(w2.res); err != nil {
		t.Fatal(err)
	}
	res, _, err = loadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 3 || res.CoveredCount != 3 {
		t.Errorf("final snapshot issued=%d covered=%d, want 3/3", res.QueriesIssued, res.CoveredCount)
	}
}

func loadSnapshot(path string) (*crawler.Result, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return crawler.LoadResultSeq(f)
}

// TestSinkPendingIntentSurvivesRepeatedCrashes: the in-flight round of a
// dead session must survive not just one recovery but a recover-then-
// crash-again sequence, because every journal reset re-seeds the
// remaining intent.
func TestSinkPendingIntentSurvivesRepeatedCrashes(t *testing.T) {
	snap, wal := paths(t)
	opts := Options{Snapshot: snap, Journal: wal, LocalLen: 4}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(4)
	if err := s.RoundSelected(pq(2, "a", "b", "c"), w.res); err != nil {
		t.Fatal(err)
	}
	w.absorb(t, s, "a", 0)
	if err := s.Close(nil); err != nil { // crash 1
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(s2.Recovered().Pending); got != "b,c" {
		t.Fatalf("after crash 1: pending %q, want b,c", got)
	}
	if err := s2.Close(nil); err != nil { // crash 2: recovered, did nothing
		t.Fatal(err)
	}

	s3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(s3.Recovered().Pending); got != "b,c" {
		t.Fatalf("after crash 2: pending %q, want b,c", got)
	}
	// The resumed crawl re-selects the pending queries: the sink matches
	// them against the journaled intent instead of double-journaling.
	rec := s3.Recovered()
	if err := s3.RoundSelected(rec.Pending[:1], rec.Result); err != nil {
		t.Fatal(err)
	}
	w3 := &world{res: rec.Result, nextID: 300}
	w3.absorb(t, s3, "b", 1)
	if err := s3.Close(nil); err != nil { // crash 3
		t.Fatal(err)
	}

	s4, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys(s4.Recovered().Pending); got != "c" {
		t.Fatalf("after crash 3: pending %q, want c", got)
	}
	if s4.Recovered().Result.QueriesIssued != 2 {
		t.Errorf("issued=%d, want 2", s4.Recovered().Result.QueriesIssued)
	}
	s4.Close(nil)
}

func keys(pending []crawler.PendingQuery) string {
	parts := make([]string, len(pending))
	for i, p := range pending {
		parts[i] = p.Query.Key()
	}
	return strings.Join(parts, ",")
}

func TestSinkResumedRoundMismatchRejected(t *testing.T) {
	snap, wal := paths(t)
	opts := Options{Snapshot: snap, Journal: wal, LocalLen: 4}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(4)
	if err := s.RoundSelected(pq(2, "a", "b"), w.res); err != nil {
		t.Fatal(err)
	}
	w.absorb(t, s, "a", 0)
	s.Close(nil)

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(nil)
	if err := s2.RoundSelected(pq(1, "z"), s2.Recovered().Result); err == nil ||
		!strings.Contains(err.Error(), "re-selects") {
		t.Errorf("wrong replay query: got %v, want re-selects error", err)
	}
	if err := s2.RoundSelected(pq(1, "b", "x"), s2.Recovered().Result); err == nil ||
		!strings.Contains(err.Error(), "journal holds") {
		t.Errorf("oversized replay round: got %v, want overflow error", err)
	}
}

func TestSinkSnapshotOnlyMode(t *testing.T) {
	snap, _ := paths(t)
	s, err := Open(Options{Snapshot: snap, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(4)
	if err := s.RoundSelected(pq(2, "a"), w.res); err != nil {
		t.Fatal(err)
	}
	w.absorb(t, s, "a", 0)
	if err := s.RoundCompleted(w.res); err != nil {
		t.Fatal(err)
	}
	if s.Compactions() != 1 {
		t.Fatalf("compactions=%d, want 1", s.Compactions())
	}
	res, _, err := loadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, res), canonical(t, w.res)) {
		t.Error("snapshot differs from live state")
	}
	if err := s.Close(w.res); err != nil {
		t.Fatal(err)
	}
	// No journal was ever created in snapshot-only mode.
	if _, err := os.Stat(filepath.Join(filepath.Dir(snap), "cp.wal")); !os.IsNotExist(err) {
		t.Errorf("snapshot-only mode created a journal: %v", err)
	}
}

func TestSinkCloseIsIdempotent(t *testing.T) {
	snap, wal := paths(t)
	s, err := Open(Options{Snapshot: snap, Journal: wal, LocalLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(4)
	if err := s.Close(w.res); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(w.res); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidation(t *testing.T) {
	snap, wal := paths(t)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"missing snapshot", Options{Journal: wal}, "Snapshot is required"},
		{"bad sync policy", Options{Snapshot: snap, Sync: "fsync-maybe"}, "unknown sync policy"},
		{"negative cadence", Options{Snapshot: snap, Every: -1}, "negative autosave"},
		{"journal without local size", Options{Snapshot: snap, Journal: wal}, "LocalLen is required"},
		{"bad crash spec", Options{Snapshot: snap, CrashPoint: "sometimes"}, "crash spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestParseCrashPoint(t *testing.T) {
	good := []string{"", "step:3", "step:3:torn:17", "round:2", "compact:1", "begin:1",
		"requeue:2", "forfeit:1", "budget_stop:1", "step:1:torn:0"}
	for _, spec := range good {
		if _, err := ParseCrashPoint(spec); err != nil {
			t.Errorf("ParseCrashPoint(%q) = %v, want ok", spec, err)
		}
	}
	bad := []string{"step", "step:0", "step:x", "nap:1", "step:1:torn", "step:1:bent:3",
		"step:1:torn:-1", "step:1:torn:x", "a:b:c:d:e"}
	for _, spec := range bad {
		if _, err := ParseCrashPoint(spec); err == nil {
			t.Errorf("ParseCrashPoint(%q) succeeded, want error", spec)
		}
	}
}

// TestCompactionAllocsFlat: a compaction encodes only what the crawl
// added since the previous one, so a compaction after one more step and
// one more crawled record allocates about as many heap bytes with 20 000
// records already in the snapshot as with 1 000 (|D| fixed). An encoder
// that re-encodes the whole state allocates in proportion to it.
func TestCompactionAllocsFlat(t *testing.T) {
	const localLen, compactions = 200, 32
	perCompaction := func(records int) uint64 {
		s, err := Open(Options{Snapshot: filepath.Join(t.TempDir(), "cp.json")})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(nil)
		w := newWorld(localLen)
		for len(w.res.Crawled) < records {
			step := crawler.Step{Query: q(fmt.Sprintf("bulk%d", len(w.res.Steps))), ResultSize: 50}
			for i := 0; i < 50; i++ {
				w.nextID++
				w.res.Crawled[w.nextID] = &relational.Record{ID: w.nextID, Values: []string{"title", "venue"}}
				step.NewHidden = append(step.NewHidden, w.nextID)
			}
			w.res.QueriesIssued++
			w.res.Steps = append(w.res.Steps, step)
		}
		if err := s.Compact(w.res); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		var total uint64
		for i := 0; i < compactions; i++ {
			w.absorb(t, s, fmt.Sprintf("q%d", i), -1)
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := s.Compact(w.res); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			total += ms.TotalAlloc - before
		}
		return total / compactions
	}
	small, large := perCompaction(1000), perCompaction(20000)
	t.Logf("heap bytes per compaction: %d with 1 000 records, %d with 20 000", small, large)
	if large > small+small/2+1024 {
		t.Fatalf("a compaction allocates %d bytes over 20 000 records but %d over 1 000: it re-encodes the old state",
			large, small)
	}
}
