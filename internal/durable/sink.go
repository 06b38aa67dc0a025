package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/obs"
)

// Fsync policies for the journal (Options.Sync). Durability against
// SIGKILL — the process dying — needs none of them: a completed write()
// lives in the page cache, which survives process death. fsync buys
// durability against the machine dying (power loss, kernel panic).
const (
	// SyncAlways fsyncs after every journal append: nothing ever lost,
	// one disk flush per charged query.
	SyncAlways = "always"
	// SyncRound fsyncs once per completed selection round — group
	// commit: a power cut loses at most the last round.
	SyncRound = "round"
	// SyncCompact (the default) fsyncs only at compaction, open, and
	// close: a power cut loses at most one autosave interval; a plain
	// crash still loses at most one record. The journal then adds no disk
	// flush beyond the snapshot's own at each compaction.
	SyncCompact = "compact"
)

// DefaultEvery is the default autosave cadence: journal→snapshot
// compaction every this many absorbed steps.
const DefaultEvery = 64

// Options configures Open.
type Options struct {
	// Snapshot is the checkpoint path — required; compaction folds the
	// journal into it atomically.
	Snapshot string
	// Journal is the WAL path; empty runs in snapshot-only mode
	// (periodic atomic snapshots, no per-step durability).
	Journal string
	// Every is the autosave cadence in absorbed steps (compaction happens
	// at the next round boundary); 0 compacts only at Close.
	Every int
	// Sync is the fsync policy; empty means SyncCompact.
	Sync string
	// LocalLen is the local database size, pinned into the journal and
	// validated against recovered state. Required when Journal is set.
	LocalLen int
	// Obs, when non-nil, observes journal appends, fsync latency, and
	// checkpoint writes.
	Obs *obs.Obs
	// CrashPoint is a crash-injection spec (see ParseCrashPoint); the
	// smartcrawl binary wires it to the SMARTCRAWL_CRASH_AT variable.
	// Empty disables injection.
	CrashPoint string
}

// Sink is the durability implementation of crawler.DurabilitySink: it
// journals every accounting-affecting merge event, compacts the journal
// into an atomic snapshot every Options.Every steps, and carries the
// recovered state of the previous session. All methods run on the crawl
// goroutine; Sink is not safe for concurrent use and does not need to be.
type Sink struct {
	opts Options
	f    *os.File // journal; nil in snapshot-only mode
	rec  *Recovered
	// seq is the last journal sequence number used; settled is the
	// cumulative charge per the last record (see Record.Charged).
	seq     uint64
	settled int
	// pendingIntent mirrors the recovered round intent still open in the
	// journal: RoundSelected calls replaying it are matched and not
	// re-journaled, and every journal reset re-writes what remains, so
	// the intent survives even a crash-recover-crash sequence.
	pendingIntent []crawler.PendingQuery
	// openIface is the interface the currently open round was allocated to
	// (rounds are interface-homogeneous); resolution records inherit it.
	// Always 0 in single-interface crawls.
	openIface    int
	counts       map[string]int // records appended by kind (crash matching)
	compacts     int
	sinceCompact int
	closed       bool
	crash        crashPoint
	// enc keeps the encoded steps and records of earlier snapshots, so a
	// compaction encodes only what the crawl added since the last one.
	enc crawler.SnapshotEncoder
}

// Open recovers prior state from Options.Snapshot + Options.Journal and
// returns a live sink: the journal is compacted into the snapshot and
// reset (discarding any torn tail exactly once), ready to append. The
// recovered state — including the pending round for
// SmartConfig.ResumePending — is available from Recovered().
func Open(opts Options) (*Sink, error) {
	if opts.Snapshot == "" {
		return nil, errors.New("durable: Options.Snapshot is required")
	}
	switch opts.Sync {
	case "":
		opts.Sync = SyncCompact
	case SyncAlways, SyncRound, SyncCompact:
	default:
		return nil, fmt.Errorf("durable: unknown sync policy %q (want %s, %s, or %s)",
			opts.Sync, SyncAlways, SyncRound, SyncCompact)
	}
	if opts.Every < 0 {
		return nil, fmt.Errorf("durable: negative autosave cadence %d", opts.Every)
	}
	if opts.Journal != "" && opts.LocalLen <= 0 {
		return nil, errors.New("durable: Options.LocalLen is required with a journal")
	}
	crash, err := ParseCrashPoint(opts.CrashPoint)
	if err != nil {
		return nil, err
	}
	rec, err := Recover(opts.Snapshot, opts.Journal, opts.LocalLen)
	if err != nil {
		return nil, err
	}
	s := &Sink{
		opts:          opts,
		rec:           rec,
		seq:           rec.LastSeq,
		settled:       rec.Charged,
		pendingIntent: append([]crawler.PendingQuery(nil), rec.Pending...),
		counts:        make(map[string]int),
		crash:         crash,
	}
	if len(rec.Pending) > 0 {
		s.openIface = rec.Pending[0].Iface
	}
	if opts.Journal != "" {
		f, err := os.OpenFile(opts.Journal, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("durable: opening journal: %w", err)
		}
		s.f = f
		// Compact on open: fold the replayed journal into the snapshot,
		// then reset the journal — the torn tail (if any) is discarded
		// here, exactly once, with its intact prefix made durable first.
		if rec.Result != nil && rec.JournalRecords > 0 {
			if err := s.writeSnapshot(rec.Result); err != nil {
				f.Close()
				return nil, err
			}
		}
		if err := s.resetJournal(rec.Result); err != nil {
			f.Close()
			return nil, err
		}
		if err := s.fsync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// Recovered returns the state recovered at Open time.
func (s *Sink) Recovered() *Recovered { return s.rec }

// Compactions returns how many journal→snapshot compactions have run.
func (s *Sink) Compactions() int { return s.compacts }

// RoundSelected implements crawler.DurabilitySink: the write-ahead intent
// record, appended before the round is dispatched.
func (s *Sink) RoundSelected(sel []crawler.PendingQuery, res *crawler.Result) error {
	if len(s.pendingIntent) > 0 {
		// The crawl is replaying the recovered round: its intent record
		// is already in the journal (re-written at every reset), so
		// journaling it again would open a second round over the same
		// queries. Verify the replay really is the journaled intent.
		if len(sel) > len(s.pendingIntent) {
			return fmt.Errorf("durable: resumed round selects %d queries, journal holds %d pending",
				len(sel), len(s.pendingIntent))
		}
		for i, p := range sel {
			if p.Query.Key() != s.pendingIntent[i].Query.Key() {
				return fmt.Errorf("durable: resumed round re-selects %q where the journal expects %q",
					p.Query, s.pendingIntent[i].Query)
			}
			if p.Iface != s.pendingIntent[i].Iface {
				return fmt.Errorf("durable: resumed round re-selects %q on interface %d where the journal expects interface %d",
					p.Query, p.Iface, s.pendingIntent[i].Iface)
			}
		}
		if len(sel) > 0 {
			s.openIface = sel[0].Iface
		}
		s.pendingIntent = s.pendingIntent[len(sel):]
		return nil
	}
	if len(sel) > 0 {
		s.openIface = sel[0].Iface
	}
	if s.f == nil {
		return nil
	}
	rec := s.newRecord(KindRound, res)
	rec.Iface = s.openIface
	rec.Round = append([]crawler.PendingQuery(nil), sel...)
	if err := s.append(rec); err != nil {
		return err
	}
	if s.opts.Sync == SyncAlways {
		return s.fsync()
	}
	return nil
}

// StepAbsorbed implements crawler.DurabilitySink: the record that makes
// an absorbed (charged) query durable.
func (s *Sink) StepAbsorbed(res *crawler.Result, step crawler.Step, newlyCovered []int) error {
	s.settled++
	s.sinceCompact++
	if s.f == nil {
		return nil
	}
	rec := s.newRecord(KindStep, res)
	rec.Iface = step.Iface
	rec.Step = buildStepRecord(res, step, newlyCovered)
	if err := s.append(rec); err != nil {
		return err
	}
	if s.opts.Sync == SyncAlways {
		return s.fsync()
	}
	return nil
}

// QueryRequeued implements crawler.DurabilitySink. charged reports
// whether the interface billed the failed attempt (deepweb.Charged).
func (s *Sink) QueryRequeued(q deepweb.Query, attempt int, charged bool, res *crawler.Result) error {
	return s.resolution(KindRequeue, q, attempt, charged, res)
}

// QueryForfeited implements crawler.DurabilitySink.
func (s *Sink) QueryForfeited(q deepweb.Query, attempts int, charged bool, res *crawler.Result) error {
	return s.resolution(KindForfeit, q, attempts, charged, res)
}

// BudgetStopped implements crawler.DurabilitySink: selected, never
// executed, never charged.
func (s *Sink) BudgetStopped(q deepweb.Query, res *crawler.Result) error {
	return s.resolution(KindBudgetStop, q, 0, false, res)
}

func (s *Sink) resolution(kind string, q deepweb.Query, attempt int, charged bool, res *crawler.Result) error {
	if charged {
		s.settled++
	}
	if s.f == nil {
		return nil
	}
	rec := s.newRecord(kind, res)
	rec.Iface = s.openIface
	rec.Query = q.Key()
	rec.Attempt = attempt
	if err := s.append(rec); err != nil {
		return err
	}
	if s.opts.Sync == SyncAlways {
		return s.fsync()
	}
	return nil
}

// RoundCompleted implements crawler.DurabilitySink: the group-commit and
// compaction point.
func (s *Sink) RoundCompleted(res *crawler.Result) error {
	if s.f != nil && s.opts.Sync == SyncRound {
		if err := s.fsync(); err != nil {
			return err
		}
	}
	if s.opts.Every > 0 && s.sinceCompact >= s.opts.Every {
		return s.compact(res)
	}
	return nil
}

// Compact folds the crawl state into an atomic snapshot and resets the
// journal. Exposed for tests; the crawl triggers it via RoundCompleted
// and Close.
func (s *Sink) Compact(res *crawler.Result) error { return s.compact(res) }

func (s *Sink) compact(res *crawler.Result) error {
	if err := s.writeSnapshot(res); err != nil {
		return err
	}
	s.compacts++
	if s.crash.active("compact", 0, s.compacts) {
		// The nastiest window: snapshot renamed, journal not yet reset.
		// Recovery handles it by skipping records the snapshot's
		// sequence number already covers.
		die()
	}
	s.sinceCompact = 0
	if s.f == nil {
		return nil
	}
	if err := s.resetJournal(res); err != nil {
		return err
	}
	return s.fsync()
}

// Close compacts the final state (when res is non-nil) and closes the
// journal. A nil res — the crawl failed — leaves the journal untouched
// on disk: it still holds the progress a later recovery can replay.
func (s *Sink) Close(res *crawler.Result) error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if res != nil {
		first = s.compact(res)
	}
	if s.f != nil {
		// A successful compact already fsynced the reset journal; an
		// extra flush here would be a no-op syscall. Sync only when the
		// journal still holds unflushed progress (failed crawl, or the
		// compact itself broke partway).
		if res == nil || first != nil {
			if err := s.f.Sync(); err != nil && first == nil {
				first = fmt.Errorf("durable: syncing journal: %w", err)
			}
		}
		if err := s.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("durable: closing journal: %w", err)
		}
	}
	return first
}

// writeSnapshot persists res atomically, stamped with the current journal
// sequence number, and times the whole write — encode, fsync, rename —
// into the obs sink.
func (s *Sink) writeSnapshot(res *crawler.Result) error {
	start := time.Now()
	err := WriteFileAtomic(s.opts.Snapshot, func(w io.Writer) error {
		return s.enc.Encode(w, res, s.seq)
	})
	if err != nil {
		return err
	}
	s.opts.Obs.Checkpoint(s.opts.Snapshot, res.CoveredCount, res.QueriesIssued)
	s.opts.Obs.CheckpointWritten(time.Since(start))
	return nil
}

// resetJournal truncates the journal and re-seeds it: magic, a begin
// record pinning the base state, and — when a recovered round is still
// being replayed — the remaining intent, so not even a crash right after
// recovery loses what the dead session had in flight.
func (s *Sink) resetJournal(res *crawler.Result) error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: truncating journal: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("durable: rewinding journal: %w", err)
	}
	if _, err := s.f.Write([]byte(journalMagic)); err != nil {
		return fmt.Errorf("durable: writing journal magic: %w", err)
	}
	begin := s.newRecord(KindBegin, res)
	begin.LocalLen = s.opts.LocalLen
	if err := s.append(begin); err != nil {
		return err
	}
	if len(s.pendingIntent) > 0 {
		round := s.newRecord(KindRound, res)
		round.Iface = s.pendingIntent[0].Iface
		round.Round = append([]crawler.PendingQuery(nil), s.pendingIntent...)
		if err := s.append(round); err != nil {
			return err
		}
	}
	return nil
}

// newRecord stamps the next sequence number and the accounting state.
func (s *Sink) newRecord(kind string, res *crawler.Result) *Record {
	s.seq++
	rec := &Record{Seq: s.seq, Kind: kind, Charged: s.settled}
	if res != nil {
		rec.QueriesIssued = res.QueriesIssued
		rec.CoveredCount = res.CoveredCount
		if rep := res.Resilience; rep != nil {
			c := *rep
			c.ForfeitedQueries = append([]string(nil), rep.ForfeitedQueries...)
			rec.Resilience = &c
		}
	}
	return rec
}

// append frames and writes one record, honoring an active crash point —
// including the torn variant, which writes only a prefix of the record
// before killing the process, simulating a crash mid-write.
func (s *Sink) append(rec *Record) error {
	buf, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	// Crash points count globally per kind, or per (kind, interface) when
	// the spec is interface-tagged — "step@1:2" means the 2nd step record
	// of interface 1, however many other interfaces stepped in between.
	key := rec.Kind
	if s.crash.iface >= 0 {
		key = fmt.Sprintf("%s@%d", rec.Kind, rec.Iface)
	}
	s.counts[key]++
	crash := s.crash.active(rec.Kind, rec.Iface, s.counts[key])
	if crash && s.crash.torn >= 0 && s.crash.torn < len(buf) {
		s.f.Write(buf[:s.crash.torn])
		die()
	}
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("durable: appending journal record: %w", err)
	}
	s.opts.Obs.WalAppend(rec.Kind, rec.Seq, len(buf))
	if crash {
		die()
	}
	return nil
}

// fsync flushes the journal, timing it into the obs sink.
func (s *Sink) fsync() error {
	if s.f == nil {
		return nil
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("durable: journal fsync: %w", err)
	}
	s.opts.Obs.WalFsynced(time.Since(start))
	return nil
}

// buildStepRecord derives the journal payload of one absorbed step from
// the just-updated Result: the new hidden records in first-crawled order
// and the newly covered match pairs in coverage order.
func buildStepRecord(res *crawler.Result, step crawler.Step, newlyCovered []int) *StepRecord {
	sr := &StepRecord{
		Query:             step.Query,
		EstimatedBenefit:  step.EstimatedBenefit,
		NewlyCovered:      step.NewlyCovered,
		CumulativeCovered: step.CumulativeCovered,
		ResultSize:        step.ResultSize,
		Iface:             step.Iface,
	}
	for _, id := range step.NewHidden {
		if h := res.Crawled[id]; h != nil {
			sr.NewRecords = append(sr.NewRecords, WireRecord{ID: id, Values: h.Values})
		}
	}
	for _, d := range newlyCovered {
		if h := res.Matches[d]; h != nil {
			sr.NewMatches = append(sr.NewMatches, WirePair{Local: d, Hidden: h.ID})
		}
	}
	return sr
}
