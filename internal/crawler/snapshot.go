package crawler

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
)

// SnapshotEncoder writes format-v2 checkpoints (see SaveResultSeq) of a
// crawl Result that keeps growing between writes. It relies on the crawl
// state being append-only: Steps only grows, Crawled only gains IDs, and
// a crawled record's Values never change once absorbed. Every step and
// every crawled record is therefore JSON-encoded once, when it first
// appears, and its bytes are kept; a write encodes only what is new,
// merges the new record IDs into the sorted record list, renders the
// small sections that do change (coverage bitmap, match pairs, counters,
// resilience report) and streams the pieces out. The bytes are exactly
// those of a fresh encode of the same Result.
//
// The cache is dropped — and the next write encodes everything — when
// the Result is a different one, when its step trace got shorter, or
// when records left Crawled. A SnapshotEncoder is not safe for
// concurrent use; its zero value is ready to use.
type SnapshotEncoder struct {
	res   *Result  // the Result the cache describes
	steps [][]byte // the encoded steps, in trace order
	// leaves hold the encoded crawled records sorted by ID; nrecs counts
	// them.
	leaves []*recordLeaf
	nrecs  int

	// Per-write scratch, kept so a write allocates only for what is new.
	frame []byte
	pairs []matchPair
	bw    *bufio.Writer
}

// recordLeaf is one run of the sorted record list, holding at most
// leafCap-1 records: inserting an ID shifts at most one leaf and a full
// leaf splits in two, so adding a record costs the same however many
// records are already encoded.
type recordLeaf struct {
	ids  []int
	json [][]byte
}

const leafCap = 256

func newRecordLeaf() *recordLeaf {
	return &recordLeaf{ids: make([]int, 0, leafCap), json: make([][]byte, 0, leafCap)}
}

// Encode writes res as a format-v2 checkpoint stamped with journalSeq.
func (e *SnapshotEncoder) Encode(w io.Writer, res *Result, journalSeq uint64) error {
	if err := e.sync(res); err != nil {
		return fmt.Errorf("crawler: encoding checkpoint: %w", err)
	}
	head, mid, tail, err := e.render(res)
	if err != nil {
		return fmt.Errorf("crawler: encoding checkpoint: %w", err)
	}
	// Two passes over the pieces, both through one buffered writer: the
	// CRC precedes the payload in the wrapper, and the CRC kernel runs
	// several times faster over buffer-sized chunks than over one record
	// at a time.
	sum := crc32.NewIEEE()
	if e.bw == nil {
		e.bw = bufio.NewWriterSize(sum, 32<<10)
	} else {
		e.bw.Reset(sum)
	}
	bw := e.bw
	defer bw.Reset(nil)
	e.writePayload(bw, head, mid, tail)
	bw.Flush()
	bw.Reset(w)
	fmt.Fprintf(bw, `{"version":%d,"journal_seq":%d,"crc32":%d,"payload":`,
		checkpointVersion, journalSeq, sum.Sum32())
	e.writePayload(bw, head, mid, tail)
	bw.WriteString("}\n")
	return bw.Flush()
}

// writePayload writes the payload piece by piece: the rendered head, the
// cached steps, the rendered separator, the cached records
// comma-separated, the rendered tail. Errors stick in bw.
func (e *SnapshotEncoder) writePayload(bw *bufio.Writer, head, mid, tail []byte) {
	bw.Write(head)
	for i, b := range e.steps {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(b)
	}
	bw.Write(mid)
	for i, l := range e.leaves {
		for j, b := range l.json {
			if i > 0 || j > 0 {
				bw.WriteByte(',')
			}
			bw.Write(b)
		}
	}
	bw.Write(tail)
}

// render builds the sections that are not cached into the frame scratch
// buffer and returns its three slices: everything before the first step,
// everything between the last step and the first record, and everything
// after the last record.
func (e *SnapshotEncoder) render(res *Result) (head, mid, tail []byte, err error) {
	b := append(e.frame[:0], `{"version":`...)
	b = strconv.AppendInt(b, checkpointVersion, 10)
	b = append(b, `,"covered_count":`...)
	b = strconv.AppendInt(b, int64(res.CoveredCount), 10)
	b = append(b, `,"queries_issued":`...)
	b = strconv.AppendInt(b, int64(res.QueriesIssued), 10)
	b = append(b, `,"covered":`...)
	if res.Covered == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range res.Covered {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"steps":`...)
	b = openList(b, len(e.steps))
	nh := len(b)
	b = closeList(b, len(e.steps))
	b = append(b, `,"crawled":`...)
	b = openList(b, e.nrecs)
	nm := len(b)
	b = closeList(b, e.nrecs)
	b = append(b, `,"matches":`...)
	e.pairs = e.pairs[:0]
	for d, h := range res.Matches {
		e.pairs = append(e.pairs, matchPair{Local: d, Hidden: h.ID})
	}
	slices.SortFunc(e.pairs, func(x, y matchPair) int { return cmp.Compare(x.Local, y.Local) })
	b = openList(b, len(e.pairs))
	for i, p := range e.pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"local":`...)
		b = strconv.AppendInt(b, int64(p.Local), 10)
		b = append(b, `,"hidden":`...)
		b = strconv.AppendInt(b, int64(p.Hidden), 10)
		b = append(b, '}')
	}
	b = closeList(b, len(e.pairs))
	if res.Resilience != nil {
		rb, err := json.Marshal(res.Resilience)
		if err != nil {
			return nil, nil, nil, err
		}
		b = append(b, `,"resilience":`...)
		b = append(b, rb...)
	}
	b = append(b, '}')
	e.frame = b
	return b[:nh], b[nh:nm], b[nm:], nil
}

// openList and closeList bracket a JSON array of n elements the way
// encoding/json renders a slice built by appending: null when empty.
func openList(b []byte, n int) []byte {
	if n == 0 {
		return append(b, "null"...)
	}
	return append(b, '[')
}

func closeList(b []byte, n int) []byte {
	if n == 0 {
		return b
	}
	return append(b, ']')
}

// sync brings the cache up to date with res: it encodes the steps
// appended since the last write and the records they first crawled, and
// falls back to scanning Crawled when the step trace does not account
// for every record (v1 checkpoints carry no new_hidden, and records can
// enter Crawled outside the trace).
func (e *SnapshotEncoder) sync(res *Result) error {
	if res != e.res || len(res.Steps) < len(e.steps) {
		e.reset(res)
	}
	for len(e.steps) < len(res.Steps) {
		s := &res.Steps[len(e.steps)]
		b, err := json.Marshal(checkpointStep{
			Query:             s.Query,
			EstimatedBenefit:  s.EstimatedBenefit,
			NewlyCovered:      s.NewlyCovered,
			CumulativeCovered: s.CumulativeCovered,
			ResultSize:        s.ResultSize,
			NewHidden:         s.NewHidden,
			Iface:             s.Iface,
		})
		if err != nil {
			return err
		}
		for _, id := range s.NewHidden {
			if r, ok := res.Crawled[id]; ok {
				if err := e.addRecord(id, r.Values); err != nil {
					return err
				}
			}
		}
		e.steps = append(e.steps, b)
	}
	if e.nrecs != len(res.Crawled) {
		for id, r := range res.Crawled {
			if err := e.addRecord(id, r.Values); err != nil {
				return err
			}
		}
		if e.nrecs != len(res.Crawled) {
			// Records left Crawled: the cache no longer describes res.
			e.reset(res)
			return e.sync(res)
		}
	}
	return nil
}

// reset drops the cache (keeping the per-write scratch) and binds it to
// res.
func (e *SnapshotEncoder) reset(res *Result) {
	*e = SnapshotEncoder{res: res, frame: e.frame, pairs: e.pairs, bw: e.bw}
}

// addRecord encodes crawled record id and inserts it into the sorted
// record list, unless it is already there.
func (e *SnapshotEncoder) addRecord(id int, values []string) error {
	if len(e.leaves) == 0 {
		e.leaves = append(e.leaves, newRecordLeaf())
	}
	// The leaf for id is the first whose largest ID is ≥ id, or the last.
	li, _ := slices.BinarySearchFunc(e.leaves, id, func(l *recordLeaf, id int) int {
		if len(l.ids) == 0 {
			return 1
		}
		return cmp.Compare(l.ids[len(l.ids)-1], id)
	})
	li = min(li, len(e.leaves)-1)
	l := e.leaves[li]
	pos, found := slices.BinarySearch(l.ids, id)
	if found {
		return nil
	}
	b, err := json.Marshal(wireRecord{ID: id, Values: values})
	if err != nil {
		return err
	}
	l.ids = slices.Insert(l.ids, pos, id)
	l.json = slices.Insert(l.json, pos, b)
	e.nrecs++
	if len(l.ids) == leafCap {
		r := newRecordLeaf()
		r.ids = append(r.ids, l.ids[leafCap/2:]...)
		r.json = append(r.json, l.json[leafCap/2:]...)
		clear(l.json[leafCap/2:])
		l.ids, l.json = l.ids[:leafCap/2], l.json[:leafCap/2]
		e.leaves = slices.Insert(e.leaves, li+1, r)
	}
	return nil
}
