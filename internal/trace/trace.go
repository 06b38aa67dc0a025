// Package trace is the reader of JSONL session traces
// (docs/TRACE_SCHEMA.md): Parse decodes each line into an Event, and the
// analyses behind cmd/tracetool work on those — summary statistics,
// round-by-round replay, event filtering, top-query rankings, and
// two-trace divergence diffs.
//
// The parser accepts every event type the obs Tracer emits — a
// round-trip test drives all fifteen through the public obs hooks and
// a schema test diffs KnownTypes against the doc's headings, so the
// tracer, the schema document, and this parser cannot drift apart
// silently. Unknown event types survive parsing as Unknown records
// (forward compatibility: an old tracetool can still summarize a newer
// trace), and a torn final line — the normal tail of a crash-interrupted
// session — returns the events before it alongside the error.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"smartcrawl/internal/obs"
)

// Event is one parsed trace line: the union of every event type's
// fields, each under its wire name (a field the line's type does not
// carry stays zero), plus the original line for lossless filtering.
type Event struct {
	Seq        uint64  `json:"seq"`  // per-session ordinal, dense from 0
	TMs        int64   `json:"t_ms"` // Unix milliseconds at emit
	Type       string  `json:"type"` // event type tag
	Query      string  `json:"query,omitempty"`
	EstBenefit float64 `json:"est_benefit,omitempty"`
	ResultSize int     `json:"result_size,omitempty"`
	NewCovered int     `json:"new_covered,omitempty"`
	CumCovered int     `json:"cum_covered,omitempty"`
	Solid      bool    `json:"solid,omitempty"`
	Size       int     `json:"size,omitempty"`
	BudgetLeft int     `json:"budget_left,omitempty"` // -1 = unlimited
	Attempt    int     `json:"attempt,omitempty"`     // a forfeit's: dispatches burned
	WaitMs     int64   `json:"wait_ms,omitempty"`
	Tokens     float64 `json:"tokens,omitempty"`
	Err        string  `json:"err,omitempty"`
	Phase      string  `json:"phase,omitempty"`
	DurMs      int64   `json:"dur_ms,omitempty"`
	Path       string  `json:"path,omitempty"`
	Covered    int     `json:"covered,omitempty"`
	Queries    int     `json:"queries,omitempty"`
	Class      string  `json:"class,omitempty"`
	From       string  `json:"from,omitempty"`
	To         string  `json:"to,omitempty"`
	Failures   int     `json:"failures,omitempty"`
	Kind       string  `json:"kind,omitempty"`
	WalSeq     uint64  `json:"wal_seq,omitempty"`
	Bytes      int     `json:"bytes,omitempty"`
	Records    int     `json:"records,omitempty"`
	Torn       bool    `json:"torn,omitempty"`
	Iface      string  `json:"iface,omitempty"` // empty on single-interface traces
	Score      float64 `json:"score,omitempty"`
	Probe      bool    `json:"probe,omitempty"`
	Raw        string  `json:"-"`
}

// knownTypes are the documented event types in schema order — the exact
// set docs/TRACE_SCHEMA.md has a section for.
var knownTypes = []string{
	obs.EventQuery, obs.EventRound, obs.EventAlloc, obs.EventRetry,
	obs.EventRateLimit, obs.EventCheckpoint, obs.EventPhase,
	obs.EventFault, obs.EventBreaker, obs.EventRequeue,
	obs.EventForfeit, obs.EventDeadlineForfeit, obs.EventHealth,
	obs.EventWalAppend, obs.EventRecovered,
}

// KnownTypes returns the documented event types in schema order.
func KnownTypes() []string { return slices.Clone(knownTypes) }

// Unknown reports whether the event's type is outside KnownTypes. Such
// an event still parses; Summarize counts it as unknown and Canonical
// renders only its type.
func (e *Event) Unknown() bool { return !slices.Contains(knownTypes, e.Type) }

// Parse decodes a JSONL trace. On a malformed line it returns the events
// parsed so far together with a line-numbered error — the torn tail of a
// crash-interrupted session is data, not a reason to drop the session.
func Parse(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e := Event{Raw: line}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return events, fmt.Errorf("line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return events, nil
}

// Canonical renders the event without its timestamp: two runs of the
// same seeded crawl differ only in t_ms (and phase durations), so diff
// compares canonical forms. Phase events canonicalize without dur_ms
// for the same reason.
func (e *Event) Canonical() string {
	var b strings.Builder
	b.WriteString(e.Type)
	switch e.Type {
	case obs.EventQuery:
		fmt.Fprintf(&b, " q=%q est=%s k=%d new=%d cum=%d solid=%t",
			e.Query, ftoa(e.EstBenefit), e.ResultSize, e.NewCovered, e.CumCovered, e.Solid)
		if e.Iface != "" {
			fmt.Fprintf(&b, " iface=%s", e.Iface)
		}
	case obs.EventRound:
		fmt.Fprintf(&b, " size=%d budget_left=%d", e.Size, e.BudgetLeft)
	case obs.EventAlloc:
		fmt.Fprintf(&b, " iface=%s est=%s budget_left=%d", e.Iface, ftoa(e.EstBenefit), e.BudgetLeft)
	case obs.EventRetry:
		fmt.Fprintf(&b, " q=%q attempt=%d wait_ms=%d err=%q", e.Query, e.Attempt, e.WaitMs, e.Err)
	case obs.EventRateLimit:
		fmt.Fprintf(&b, " q=%q tokens=%s", e.Query, ftoa(e.Tokens))
	case obs.EventCheckpoint:
		fmt.Fprintf(&b, " path=%q covered=%d queries=%d", e.Path, e.Covered, e.Queries)
	case obs.EventPhase:
		fmt.Fprintf(&b, " phase=%s", e.Phase)
	case obs.EventFault:
		fmt.Fprintf(&b, " q=%q class=%s attempt=%d", e.Query, e.Class, e.Attempt)
	case obs.EventBreaker:
		fmt.Fprintf(&b, " from=%s to=%s failures=%d", e.From, e.To, e.Failures)
	case obs.EventRequeue:
		fmt.Fprintf(&b, " q=%q attempt=%d err=%q", e.Query, e.Attempt, e.Err)
	case obs.EventForfeit:
		fmt.Fprintf(&b, " q=%q attempts=%d err=%q", e.Query, e.Attempt, e.Err)
	case obs.EventDeadlineForfeit:
		fmt.Fprintf(&b, " q=%q attempt=%d", e.Query, e.Attempt)
	case obs.EventHealth:
		fmt.Fprintf(&b, " iface=%s score=%s probe=%t", e.Iface, ftoa(e.Score), e.Probe)
	case obs.EventWalAppend:
		fmt.Fprintf(&b, " kind=%s wal_seq=%d bytes=%d", e.Kind, e.WalSeq, e.Bytes)
	case obs.EventRecovered:
		fmt.Fprintf(&b, " path=%q records=%d covered=%d queries=%d wal_seq=%d torn=%t",
			e.Path, e.Records, e.Covered, e.Queries, e.WalSeq, e.Torn)
	default:
		fmt.Fprintf(&b, " (unknown)")
	}
	return b.String()
}

// ftoa renders a float compactly and losslessly.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
