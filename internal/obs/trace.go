package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer emits structured session events as JSON Lines: one event per
// line, fields in a fixed order (struct declaration order, which
// encoding/json preserves), every line independently parseable. A trace
// is the replayable story of a crawl session — which query was selected
// with what estimated benefit, what it returned, what it newly covered,
// plus retry/backoff, rate-limit, checkpoint, phase-timing, and the
// resilience events (fault, breaker, requeue, forfeit) of a degraded
// crawl. Every event type and field is documented in docs/TRACE_SCHEMA.md.
//
// Tracer serializes writes with a mutex and is safe for concurrent use
// by the dispatcher's workers. Write errors are sticky: the first one is
// retained (Err) and later events are dropped, so a full disk degrades a
// crawl to untraced instead of failing it.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time
	seq uint64
	err error
}

// NewTracer traces onto w. Callers own w's lifecycle; wrap files in a
// bufio.Writer and use Flush before closing.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, now: time.Now}
}

// WithClock replaces the tracer's time source (tests inject a fake clock
// for byte-stable golden traces) and returns the tracer.
func (t *Tracer) WithClock(now func() time.Time) *Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	return t
}

// Err returns the first write or encoding error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Flush flushes the underlying writer when it is buffered (implements
// Flush() error, as bufio.Writer does).
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if f, ok := t.w.(interface{ Flush() error }); ok {
		t.err = f.Flush()
	}
	return t.err
}

// Event types, the `type` field of every trace line. The full schema —
// per-type field tables with a sample line each — is documented in
// docs/TRACE_SCHEMA.md; keep the two in sync when adding event types.
const (
	EventQuery      = "query"
	EventRound      = "round"
	EventRetry      = "retry"
	EventRateLimit  = "rate_limit"
	EventCheckpoint = "checkpoint"
	EventPhase      = "phase"
	EventFault      = "fault"
	EventBreaker    = "breaker"
	EventRequeue    = "requeue"
	EventForfeit    = "forfeit"
	EventWalAppend  = "wal_append"
	EventRecovered  = "recovered"
	EventAlloc      = "alloc"
	// EventDeadlineForfeit accompanies a forfeit caused by the crawl
	// deadline: the generic forfeit event is still emitted for the same
	// query, this one carries the cause attribution.
	EventDeadlineForfeit = "deadline_forfeit"
	// EventHealth traces an interface health-score movement or (with
	// probe=true) a recovery-probe allocation of a federated crawl.
	EventHealth = "health"
)

// Per-type wire structs. Field order here IS the schema: encoding/json
// marshals struct fields in declaration order, writing an embedded
// struct's fields inline in its place, and the golden-file test pins
// these bytes.

// envelope opens every trace line; emit stamps it.
type envelope struct {
	Seq  uint64 `json:"seq"`
	TMs  int64  `json:"t_ms"`
	Type string `json:"type"`
}

func (e *envelope) stamp(seq uint64, tms int64, typ string) {
	e.Seq, e.TMs, e.Type = seq, tms, typ
}

// event is a pointer to a wire struct, which embeds envelope.
type event interface {
	stamp(seq uint64, tms int64, typ string)
}

// queryEvent is one absorbed query. Iface tags the issuing interface of
// a federated crawl; untagged single-interface traces omit it.
type queryEvent struct {
	envelope
	Query      string  `json:"query"`
	EstBenefit float64 `json:"est_benefit"`
	ResultSize int     `json:"result_size"`
	NewCovered int     `json:"new_covered"`
	CumCovered int     `json:"cum_covered"`
	Solid      bool    `json:"solid"`
	Iface      string  `json:"iface,omitempty"`
}

type roundEvent struct {
	envelope
	Size       int `json:"size"`
	BudgetLeft int `json:"budget_left"`
}

type retryEvent struct {
	envelope
	Query   string `json:"query"`
	Attempt int    `json:"attempt"`
	WaitMs  int64  `json:"wait_ms"`
	Err     string `json:"err,omitempty"`
}

type rateLimitEvent struct {
	envelope
	Query  string  `json:"query"`
	Tokens float64 `json:"tokens"`
}

type checkpointEvent struct {
	envelope
	Path    string `json:"path"`
	Covered int    `json:"covered"`
	Queries int    `json:"queries"`
}

type phaseEvent struct {
	envelope
	Phase string `json:"phase"`
	DurMs int64  `json:"dur_ms"`
}

type faultEvent struct {
	envelope
	Query   string `json:"query"`
	Class   string `json:"class"`
	Attempt int    `json:"attempt"`
}

type breakerEvent struct {
	envelope
	From     string `json:"from"`
	To       string `json:"to"`
	Failures int    `json:"failures"`
}

// requeueEvent doubles as the forfeit event: same shape, different type
// tag (a forfeit's Attempt is the total dispatch count it burned).
type requeueEvent struct {
	envelope
	Query   string `json:"query"`
	Attempt int    `json:"attempt"`
	Err     string `json:"err,omitempty"`
}

// walAppendEvent traces one record appended to the write-ahead journal.
type walAppendEvent struct {
	envelope
	Kind   string `json:"kind"`
	WalSeq uint64 `json:"wal_seq"`
	Bytes  int    `json:"bytes"`
}

// recoveredEvent traces one crash recovery: how much state came back from
// the snapshot + journal, and whether a torn tail record was discarded.
type recoveredEvent struct {
	envelope
	Path    string `json:"path"`
	Records int    `json:"records"`
	Covered int    `json:"covered"`
	Queries int    `json:"queries"`
	WalSeq  uint64 `json:"wal_seq"`
	Torn    bool   `json:"torn"`
}

// allocEvent traces one federated budget allocation: which interface won
// the round and under what top estimated benefit.
type allocEvent struct {
	envelope
	Iface      string  `json:"iface"`
	EstBenefit float64 `json:"est_benefit"`
	BudgetLeft int     `json:"budget_left"`
}

// deadlineForfeitEvent attributes a forfeit to the crawl deadline; the
// Attempt field is the total dispatch count the query burned, matching the
// generic forfeit event emitted alongside it.
type deadlineForfeitEvent struct {
	envelope
	Query   string `json:"query"`
	Attempt int    `json:"attempt"`
}

// healthEvent traces one interface health-score movement (score in [0,1])
// or, with Probe set, a recovery-probe round granted while degraded.
type healthEvent struct {
	envelope
	Iface string  `json:"iface"`
	Score float64 `json:"score"`
	Probe bool    `json:"probe,omitempty"`
}

// emit stamps the event's envelope with the next sequence number, the
// time and typ under the lock, so trace lines are totally ordered even
// when workers race.
func (t *Tracer) emit(typ string, e event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	e.stamp(t.seq, t.now().UnixMilli(), typ)
	t.seq++
	b, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}
