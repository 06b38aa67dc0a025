package crawler

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/relational"
)

// Checkpointing lets a crawl span multiple API-quota windows: the paper's
// motivating quotas (Yelp: 25k requests/day) mean real enrichment jobs
// stop and resume daily. SaveResult serializes a crawl Result; a later
// SMARTCRAWL run passes it as SmartConfig.Resume and continues exactly
// where the previous session stopped — covered records stay covered,
// issued queries are never re-issued, and §4.2 ΔD removals are replayed
// from the step trace, so a resumed crawl is step-for-step identical to an
// uninterrupted one with the combined budget.
//
// Format history:
//
//	v1 — a bare JSON object with the crawl state inline.
//	v2 — the same state as a raw payload wrapped with a CRC32 (IEEE) over
//	     the payload bytes and the WAL journal sequence number the
//	     snapshot is current through (see internal/durable). The CRC
//	     turns a torn or bit-rotted snapshot into a clean load error
//	     instead of silently wrong resume state; the sequence number lets
//	     recovery skip journal records the snapshot already folds in.
//
// SaveResult writes v2; LoadResult reads both.

// checkpointVersion is the format written by SaveResult.
const checkpointVersion = 2

// checkpointV2 is the v2 on-disk wrapper.
type checkpointV2 struct {
	Version    int             `json:"version"`
	JournalSeq uint64          `json:"journal_seq"`
	CRC32      *uint32         `json:"crc32"`
	Payload    json.RawMessage `json:"payload"`
}

type checkpointFile struct {
	Version       int              `json:"version"`
	CoveredCount  int              `json:"covered_count"`
	QueriesIssued int              `json:"queries_issued"`
	Covered       []bool           `json:"covered"`
	Steps         []checkpointStep `json:"steps"`
	Crawled       []wireRecord     `json:"crawled"`
	Matches       []matchPair      `json:"matches"`
	// Resilience persists the graceful-degradation report; absent for
	// runs without fault tolerance (and in pre-resilience checkpoints,
	// which load fine — the field is optional). Resumed runs report
	// cumulatively, and forfeited queries — absent from Steps — are
	// naturally re-eligible for selection.
	Resilience *Resilience `json:"resilience,omitempty"`
}

type checkpointStep struct {
	Query             []string `json:"query"`
	EstimatedBenefit  float64  `json:"estimated_benefit"`
	NewlyCovered      int      `json:"newly_covered"`
	CumulativeCovered int      `json:"cumulative_covered"`
	ResultSize        int      `json:"result_size"`
	NewHidden         []int    `json:"new_hidden,omitempty"`
	// Iface tags the issuing interface of a federated crawl; omitted at
	// zero so single-interface checkpoints keep their exact bytes.
	Iface int `json:"iface,omitempty"`
}

type wireRecord struct {
	ID     int      `json:"id"`
	Values []string `json:"values"`
}

type matchPair struct {
	Local  int `json:"local"`
	Hidden int `json:"hidden"`
}

// SaveResult writes res as a JSON checkpoint (current format version).
func SaveResult(w io.Writer, res *Result) error {
	return SaveResultSeq(w, res, 0)
}

// SaveResultSeq is SaveResult carrying the WAL journal sequence number
// the snapshot is current through: recovery replays only journal records
// with a larger sequence, which is what makes a crash between snapshot
// rename and journal truncation harmless. The payload is the JSON of a
// checkpointFile with the map-derived sections sorted (crawled records by
// ID, matches by local ID), so output is byte-deterministic for a given
// Result (stable diffs, content-addressable storage); the wrapper is one
// line, newline-terminated. A crawl that saves repeatedly keeps one
// SnapshotEncoder instead, which writes the same bytes.
func SaveResultSeq(w io.Writer, res *Result, journalSeq uint64) error {
	return new(SnapshotEncoder).Encode(w, res, journalSeq)
}

// LoadResult reads a checkpoint written by SaveResult (v2 or v1).
func LoadResult(r io.Reader) (*Result, error) {
	res, _, err := LoadResultSeq(r)
	return res, err
}

// LoadResultSeq is LoadResult returning also the journal sequence number
// the snapshot is current through (0 for v1 checkpoints, which predate
// the journal). The checkpoint is validated structurally — checksum,
// coverage popcount, step-trace consistency, match references — so a
// corrupt file yields an error, never a panic or silently wrong state.
func LoadResultSeq(r io.Reader) (*Result, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("crawler: reading checkpoint: %w", err)
	}
	// One decode of the wrapper tells the versions apart: a v1 file is
	// the crawl state itself, so only its version field lands there.
	var v2 checkpointV2
	if err := json.Unmarshal(data, &v2); err != nil {
		return nil, 0, fmt.Errorf("crawler: decoding checkpoint: %w", err)
	}
	var cf checkpointFile
	var seq uint64
	switch v2.Version {
	case 1:
		if err := json.Unmarshal(data, &cf); err != nil {
			return nil, 0, fmt.Errorf("crawler: decoding checkpoint: %w", err)
		}
	case checkpointVersion:
		if v2.CRC32 == nil {
			return nil, 0, fmt.Errorf("crawler: checkpoint v2 missing crc32")
		}
		if got := crc32.ChecksumIEEE(v2.Payload); got != *v2.CRC32 {
			return nil, 0, fmt.Errorf("crawler: checkpoint corrupt: crc32 %08x, want %08x", got, *v2.CRC32)
		}
		if err := json.Unmarshal(v2.Payload, &cf); err != nil {
			return nil, 0, fmt.Errorf("crawler: decoding checkpoint payload: %w", err)
		}
		if cf.Version != checkpointVersion {
			return nil, 0, fmt.Errorf("crawler: checkpoint payload version %d under v%d wrapper", cf.Version, checkpointVersion)
		}
		seq = v2.JournalSeq
	default:
		return nil, 0, fmt.Errorf("crawler: checkpoint version %d unsupported (want %d or 1)",
			v2.Version, checkpointVersion)
	}
	if err := cf.validate(); err != nil {
		return nil, 0, err
	}
	res := &Result{
		Covered:       cf.Covered,
		CoveredCount:  cf.CoveredCount,
		QueriesIssued: cf.QueriesIssued,
		Matches:       make(map[int]*relational.Record, len(cf.Matches)),
		Crawled:       make(map[int]*relational.Record, len(cf.Crawled)),
		Resilience:    cf.Resilience,
	}
	for _, s := range cf.Steps {
		res.Steps = append(res.Steps, Step{
			Query:             deepweb.Query(s.Query),
			EstimatedBenefit:  s.EstimatedBenefit,
			NewlyCovered:      s.NewlyCovered,
			CumulativeCovered: s.CumulativeCovered,
			ResultSize:        s.ResultSize,
			NewHidden:         s.NewHidden,
			Iface:             s.Iface,
		})
	}
	for _, wr := range cf.Crawled {
		res.Crawled[wr.ID] = &relational.Record{ID: wr.ID, Values: wr.Values}
	}
	for _, mp := range cf.Matches {
		h, ok := res.Crawled[mp.Hidden]
		if !ok {
			return nil, 0, fmt.Errorf("crawler: checkpoint match references uncrawled record %d", mp.Hidden)
		}
		res.Matches[mp.Local] = h
	}
	return res, seq, nil
}

// validate rejects checkpoints whose internal invariants do not hold —
// the kind of damage a CRC cannot catch when the file was assembled, not
// flipped, wrong (a buggy writer, a hand-edited file, a fuzzer).
func (cf *checkpointFile) validate() error {
	pop := 0
	for _, c := range cf.Covered {
		if c {
			pop++
		}
	}
	if pop != cf.CoveredCount {
		return fmt.Errorf("crawler: checkpoint covered_count %d, but %d covered bits set",
			cf.CoveredCount, pop)
	}
	if cf.QueriesIssued < len(cf.Steps) {
		return fmt.Errorf("crawler: checkpoint has %d steps but only %d queries issued",
			len(cf.Steps), cf.QueriesIssued)
	}
	cum := 0
	for i, s := range cf.Steps {
		if s.NewlyCovered < 0 || s.ResultSize < 0 || s.Iface < 0 {
			return fmt.Errorf("crawler: checkpoint step %d has negative counts", i)
		}
		cum += s.NewlyCovered
		if s.CumulativeCovered != cum {
			return fmt.Errorf("crawler: checkpoint step %d cumulative_covered %d, want %d",
				i, s.CumulativeCovered, cum)
		}
	}
	if cum != cf.CoveredCount {
		return fmt.Errorf("crawler: checkpoint steps cover %d records, covered_count says %d",
			cum, cf.CoveredCount)
	}
	for _, mp := range cf.Matches {
		if mp.Local < 0 || mp.Local >= len(cf.Covered) {
			return fmt.Errorf("crawler: checkpoint match references local record %d outside [0,%d)",
				mp.Local, len(cf.Covered))
		}
		if !cf.Covered[mp.Local] {
			return fmt.Errorf("crawler: checkpoint match for local record %d, which is not covered", mp.Local)
		}
	}
	return nil
}
