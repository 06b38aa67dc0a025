package trace

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"smartcrawl/internal/obs"
)

// fakeClock advances a fixed step per call for byte-stable traces.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(3600, 0).UTC()
	return func() time.Time { t = t.Add(step); return t }
}

// emitAllTypes drives every documented event type through the public obs
// hooks — the producer side of the schema — and returns the trace bytes.
func emitAllTypes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	o := obs.New().WithClock(fakeClock(5 * time.Millisecond))
	tr := obs.NewTracer(&buf).WithClock(fakeClock(time.Millisecond))
	o.SetTracer(tr)

	done := o.Phase("crawl")
	o.Recovered("crawl.wal", 12, 17, 2, 9, true)
	o.Round(2, 95)
	o.Alloc("acm", 3.25, 90)
	o.Query("deep web crawling", 2.5, 40, 12, 12, false)
	o.QueryIface("acm", "query optimization", 1.5, 10, 5, 17, true)
	o.Retry("deep web crawling", 1, 10*time.Millisecond, errors.New("http 504"))
	o.RateLimitDenied("deep web crawling", 1.5)
	o.FaultInjected("deep web crawling", "http_500", 1)
	o.BreakerTransition("closed", "open", 3)
	o.Requeued("query optimization", 1, errors.New("breaker open"))
	o.Forfeited("query optimization", 3, errors.New("breaker open"))
	o.DeadlineForfeited("query optimization", 3)
	o.Health("acm", 0.8, true)
	o.WalAppend("query", 7, 64)
	o.Checkpoint("crawl.ckpt", 17, 2)
	done()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripAllTypes parses a trace carrying every documented event
// type: nothing may come back Unknown, and every event must carry its
// hook's arguments, under their wire names, and no other field.
func TestRoundTripAllTypes(t *testing.T) {
	events, err := Parse(bytes.NewReader(emitAllTypes(t)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range events {
		e := &events[i]
		if e.Unknown() {
			t.Errorf("event %d (%s) parsed as unknown", i, e.Type)
		}
		if e.Raw == "" {
			t.Errorf("event %d lost its raw line", i)
		}
		seen[e.Type] = true
	}
	for _, typ := range KnownTypes() {
		if !seen[typ] {
			t.Errorf("emitAllTypes produced no %s event", typ)
		}
	}

	want := []Event{
		{Type: "recovered", Path: "crawl.wal", Records: 12, Covered: 17, Queries: 2, WalSeq: 9, Torn: true},
		{Type: "round", Size: 2, BudgetLeft: 95},
		{Type: "alloc", Iface: "acm", EstBenefit: 3.25, BudgetLeft: 90},
		{Type: "query", Query: "deep web crawling", EstBenefit: 2.5, ResultSize: 40, NewCovered: 12, CumCovered: 12},
		{Type: "query", Query: "query optimization", EstBenefit: 1.5, ResultSize: 10, NewCovered: 5, CumCovered: 17,
			Solid: true, Iface: "acm"},
		{Type: "retry", Query: "deep web crawling", Attempt: 1, WaitMs: 10, Err: "http 504"},
		{Type: "rate_limit", Query: "deep web crawling", Tokens: 1.5},
		{Type: "fault", Query: "deep web crawling", Class: "http_500", Attempt: 1},
		{Type: "breaker", From: "closed", To: "open", Failures: 3},
		{Type: "requeue", Query: "query optimization", Attempt: 1, Err: "breaker open"},
		{Type: "forfeit", Query: "query optimization", Attempt: 3, Err: "breaker open"},
		{Type: "deadline_forfeit", Query: "query optimization", Attempt: 3},
		{Type: "health", Iface: "acm", Score: 0.8, Probe: true},
		{Type: "wal_append", Kind: "query", WalSeq: 7, Bytes: 64},
		{Type: "checkpoint", Path: "crawl.ckpt", Covered: 17, Queries: 2},
		{Type: "phase", Phase: "crawl", DurMs: 5},
	}
	if len(events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		w := want[i]
		w.Seq, w.TMs, w.Raw = uint64(i), 3600001+int64(i), e.Raw
		if e != w {
			t.Errorf("event %d = %+v\nwant %+v", i, e, w)
		}
	}
}

// TestAnalysesKnowEveryType runs the analyses over a trace of every
// documented type: Summarize must count none of them unknown, and a
// filter must select each event that names the query or interface,
// whatever its type.
func TestAnalysesKnowEveryType(t *testing.T) {
	events, err := Parse(bytes.NewReader(emitAllTypes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if s := Summarize(events); s.Unknown != 0 {
		t.Errorf("summary counts %d unknown events in a trace of known types", s.Unknown)
	}
	types := func(events []Event) string {
		var ts []string
		for _, e := range events {
			ts = append(ts, e.Type)
		}
		return strings.Join(ts, " ")
	}
	if got, want := types(Filter{QuerySub: "optimization"}.Apply(events)),
		"query requeue forfeit deadline_forfeit"; got != want {
		t.Errorf("q= filter selected [%s], want [%s]", got, want)
	}
	if got, want := types(Filter{Iface: "acm"}.Apply(events)), "alloc query health"; got != want {
		t.Errorf("iface= filter selected [%s], want [%s]", got, want)
	}
}

// TestKnownTypesMatchSchemaDoc diffs KnownTypes against the `## \`type\“
// headings of docs/TRACE_SCHEMA.md, so the doc, the tracer, and this
// parser cannot drift apart silently.
func TestKnownTypesMatchSchemaDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/TRACE_SCHEMA.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?m)^## `([a-z_]+)`")
	var documented []string
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	if got, want := strings.Join(documented, " "), strings.Join(KnownTypes(), " "); got != want {
		t.Errorf("TRACE_SCHEMA.md headings = [%s], parser KnownTypes = [%s]", got, want)
	}
}

// TestParseTornTail mimics a crash-interrupted session: the events
// before the torn line must come back with the error.
func TestParseTornTail(t *testing.T) {
	full := emitAllTypes(t)
	torn := full[:len(full)-20] // cut mid-line
	events, err := Parse(bytes.NewReader(torn))
	if err == nil {
		t.Fatal("torn trace parsed without error")
	}
	if len(events) == 0 {
		t.Fatal("torn trace yielded no prefix events")
	}
	for i := range events {
		if events[i].Unknown() {
			t.Errorf("prefix event %d unknown", i)
		}
	}
}

// TestUnknownTypeSurvives pins forward compatibility.
func TestUnknownTypeSurvives(t *testing.T) {
	line := `{"seq":0,"t_ms":1,"type":"hologram","query":"x"}` + "\n"
	events, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Unknown() || events[0].Type != "hologram" {
		t.Fatalf("events = %+v", events)
	}
	if got := events[0].Canonical(); got != "hologram (unknown)" {
		t.Fatalf("canonical = %q", got)
	}
}

// TestCanonicalIgnoresTime pins the property diff depends on: two traces
// of the same crawl differing only in timestamps canonicalize equal.
func TestCanonicalIgnoresTime(t *testing.T) {
	a := `{"seq":3,"t_ms":100,"type":"phase","phase":"crawl","dur_ms":250}`
	b := `{"seq":3,"t_ms":900,"type":"phase","phase":"crawl","dur_ms":999}`
	ea, err := Parse(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Parse(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if ea[0].Canonical() != eb[0].Canonical() {
		t.Fatalf("phase canonical depends on time: %q vs %q", ea[0].Canonical(), eb[0].Canonical())
	}
}

// FuzzParseTrace asserts the parser never panics and — when a prefix
// parses cleanly — that re-parsing the raw lines it preserved reproduces
// the same canonical stream (parse/render stability).
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(`{"seq":0,"t_ms":1,"type":"query","query":"a","est_benefit":1.5,"result_size":3,"new_covered":2,"cum_covered":2,"solid":false}`))
	f.Add([]byte(`{"seq":0,"t_ms":1,"type":"round","size":4,"budget_left":-1}`))
	f.Add([]byte(`{"seq":0,"t_ms":1,"type":"breaker","from":"closed","to":"open","failures":3}`))
	f.Add([]byte("not json\n{}\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"type":"query"}` + "\n" + `{"type":"zzz"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var raws strings.Builder
		for i := range events {
			raws.WriteString(events[i].Raw)
			raws.WriteByte('\n')
		}
		again, err := Parse(strings.NewReader(raws.String()))
		if err != nil {
			t.Fatalf("preserved raw lines failed to re-parse: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-parse count %d != %d", len(again), len(events))
		}
		for i := range events {
			if events[i].Canonical() != again[i].Canonical() {
				t.Fatalf("event %d canonical drifted: %q vs %q",
					i, events[i].Canonical(), again[i].Canonical())
			}
		}
		// Analyses must tolerate arbitrary parsed input.
		_ = Summarize(events)
		_ = Rounds(events)
		_ = Top(events, ByEstimateError, 5)
		_ = Diff(events, events)
	})
}
