package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// emitOneOfEach drives every event type through the public Obs hooks
// (never the tracer's own emitters) with deterministic clocks, so the
// golden bytes pin the schema exactly as production code produces it.
// Each shape an omitempty field gives a type is pinned too: the tagged
// query, health with and without probe, retry and requeue without err.
func emitOneOfEach() *bytes.Buffer {
	clock := fakeClock(5 * time.Millisecond)
	var buf bytes.Buffer
	tr := NewTracer(&buf).WithClock(clock)
	o := New().WithClock(clock)
	o.SetTracer(tr)

	stop := o.Phase("pool_generate")
	stop()
	o.Round(2, 48)
	o.Retry("thai noodle", 1, 200*time.Millisecond, errors.New("http 500"))
	o.RateLimitDenied("thai noodle", 0.5)
	o.Query("thai noodle", 3.5, 50, 3, 3, false)
	o.Checkpoint("run.ckpt", 3, 1)
	o.FaultInjected("rare dish", "timeout", 1)
	o.BreakerTransition("closed", "open", 5)
	o.Requeued("rare dish", 1, errors.New("injected timeout"))
	o.Forfeited("rare dish", 3, errors.New("injected timeout"))
	o.Alloc("acm", 2.25, 47)
	o.QueryIface("acm", "rare dish", 1.5, 7, 2, 5, true)
	o.DeadlineForfeited("slow dish", 2)
	o.Health("acm", 0.8, false)
	o.Health("acm", 0.05, true)
	o.WalAppend("step", 7, 96)
	o.Recovered("run.ckpt", 12, 5, 2, 7, true)
	o.Retry("slow dish", 2, 0, nil)
	o.Requeued("slow dish", 2, nil)
	return &buf
}

// TestGoldenTrace pins the JSONL wire format byte-for-byte: field order
// (struct declaration order), number formatting, one event per line.
// Regenerate with `go test ./internal/obs -run TestGoldenTrace -update`
// after an intentional schema change.
func TestGoldenTrace(t *testing.T) {
	got := emitOneOfEach().Bytes()
	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace bytes diverge from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceRoundTrip checks every emitted line is independently
// parseable by encoding/json and opens with its envelope: a dense seq and
// the type of the hook that emitted it. internal/trace's
// TestRoundTripAllTypes checks the payload fields.
func TestTraceRoundTrip(t *testing.T) {
	wantTypes := []string{EventPhase, EventRound, EventRetry, EventRateLimit, EventQuery, EventCheckpoint,
		EventFault, EventBreaker, EventRequeue, EventForfeit, EventAlloc, EventQuery,
		EventDeadlineForfeit, EventHealth, EventHealth, EventWalAppend, EventRecovered,
		EventRetry, EventRequeue}
	lines := bytes.Split(bytes.TrimSpace(emitOneOfEach().Bytes()), []byte("\n"))
	if len(lines) != len(wantTypes) {
		t.Fatalf("got %d lines, want %d", len(lines), len(wantTypes))
	}
	for i, line := range lines {
		var e struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		if e.Seq != uint64(i) || e.Type != wantTypes[i] {
			t.Errorf("line %d: seq %d type %q, want seq %d type %q", i, e.Seq, e.Type, i, wantTypes[i])
		}
		if !bytes.HasPrefix(line, []byte(`{"seq":`)) {
			t.Errorf("line %d does not open with its envelope: %s", i, line)
		}
	}
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct {
	n       int
	wrote   int
	refused int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.wrote+len(p) > f.n {
		f.refused++
		return 0, errors.New("disk full")
	}
	f.wrote += len(p)
	return len(p), nil
}

// TestTracerStickyError checks a write failure mutes the tracer instead
// of failing the crawl: the first error is retained, later events are
// dropped without further writes.
func TestTracerStickyError(t *testing.T) {
	w := &failAfter{n: 60} // room for roughly one line
	tr := NewTracer(w).WithClock(fakeClock(time.Millisecond))
	o := New()
	o.SetTracer(tr)

	o.Round(1, 10) // fits
	for i := 0; i < 5; i++ {
		o.Checkpoint("x.ckpt", 100, 50) // first one fails, rest dropped
	}
	if tr.Err() == nil {
		t.Fatal("write failure not retained")
	}
	if w.refused != 1 {
		t.Fatalf("writer refused %d times, want 1 (sticky error must stop writes)", w.refused)
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush must surface the sticky error")
	}
	// Metrics keep working after the tracer dies.
	if got := o.Checkpoints.Value(); got != 5 {
		t.Fatalf("Checkpoints = %d, want 5", got)
	}
}
