package promexport

import (
	"bytes"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"smartcrawl/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock returns a deterministic clock advancing by step per call, so
// phase durations (the only wall-clock-derived metric) are byte-stable.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time { t = t.Add(step); return t }
}

// populatedObs drives every metric through the public obs hooks, so the
// golden file covers each family — including the dynamically labeled
// ones (fault class, phase, iface).
func populatedObs() *obs.Obs {
	o := obs.New().WithClock(fakeClock(5 * time.Millisecond))

	done := o.Phase("crawl")
	o.IndexBuilt(4)
	o.Round(1, 95)
	o.EstimateComputed()
	o.SearchDone(700*time.Microsecond, false)
	o.SearchDone(2*time.Millisecond, false)
	o.SearchDone(40*time.Millisecond, true)
	o.Query("deep web crawling", 2.5, 40, 12, 12, false)
	o.QueryIface("acm", "query optimization", 1.5, 10, 5, 17, true)
	o.Alloc("acm", 3.25, 90)
	im := o.Iface("acm")
	im.Queries.Inc()
	im.Covered.Add(5)
	im.Solid.Inc()
	im.Allocs.Inc()
	im.Errors.Inc()
	im.Requeues.Inc()
	im.Forfeits.Inc()
	im.Holds.Inc()
	im.HealthScore.Set(800)
	im.Probes.Inc()
	o.Retry("deep web crawling", 1, 10*time.Millisecond, errors.New("timeout"))
	o.RateLimitDenied("deep web crawling", 1.5)
	o.FaultInjected("deep web crawling", "http_500", 1)
	o.FaultInjected("deep web crawling", "timeout", 2)
	o.BreakerTransition("closed", "open", 3)
	o.BreakerTransition("open", "half-open", 0)
	o.Requeued("query optimization", 1, errors.New("fault"))
	o.Forfeited("query optimization", 3, errors.New("fault"))
	o.DeadlineForfeited("query optimization", 2)
	o.RetryDenied("query optimization")
	o.Refunded("query optimization")
	o.Truncated("deep web crawling", 30, 40)
	o.Checkpoint("crawl.ckpt", 17, 2)
	o.WalAppend("query", 1, 64)
	o.WalFsynced(300 * time.Microsecond)
	o.Recovered("crawl.wal", 12, 17, 2, 1, false)
	done()
	return o
}

// TestGoldenExposition pins the full text exposition of a populated sink
// byte-for-byte. Regenerate with: go test ./internal/obs/promexport -run
// Golden -update
func TestGoldenExposition(t *testing.T) {
	c := NewCollection()
	c.CollectObs(populatedObs())
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

var (
	nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?|\+Inf|NaN)$`)
)

// TestExpositionWellFormed validates the rendered text against the
// format's grammar: HELP/TYPE precede the samples of each family, every
// sample line parses, label signatures within a family are strictly
// sorted, and histogram buckets are cumulative and le-sorted.
func TestExpositionWellFormed(t *testing.T) {
	c := NewCollection()
	c.CollectObs(populatedObs())
	// Daemon families too, so the grammar check spans the whole registry.
	c.Add("crawld_jobs", 2, Label{"state", "running"})
	c.Add("crawld_jobs", 1, Label{"state", "queued"})
	c.Add("crawld_draining", 0)
	c.Add("crawld_tenant_reserved_queries", 48, Label{"tenant", `"quo\ted"`})
	c.Add("crawld_tenant_budget_cap_queries", 100)

	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	typed := map[string]string{} // family -> TYPE
	var curFamily string
	var lastSig string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found || !nameRe.MatchString(name) {
				t.Fatalf("bad HELP line: %q", line)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("bad TYPE line: %q", line)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			typed[name] = kind
			curFamily, lastSig = name, ""
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		if base != curFamily && m[1] != curFamily {
			t.Fatalf("sample %q outside its family block (current %q)", line, curFamily)
		}
		if kind := typed[curFamily]; kind != "histogram" {
			if sig := m[2]; sig < lastSig {
				t.Fatalf("labels not sorted within %s: %q after %q", curFamily, sig, lastSig)
			} else {
				lastSig = sig
			}
		}
	}
	// Every family block carried both HELP and TYPE.
	for name := range c.byFamily {
		if _, ok := typed[name]; !ok {
			t.Errorf("family %s has no TYPE line", name)
		}
	}
}

// TestRegistryCoverage asserts CollectObs emits every registry family a
// single-process binary serves (per-job set), that names are unique and
// well-formed, and that counters follow the _total convention.
func TestRegistryCoverage(t *testing.T) {
	c := NewCollection()
	c.CollectObs(populatedObs())
	seen := map[string]bool{}
	for name := range c.byFamily {
		seen[name] = true
	}
	names := map[string]bool{}
	for _, d := range Registry() {
		if names[d.Name] {
			t.Errorf("duplicate registry name %s", d.Name)
		}
		names[d.Name] = true
		if !nameRe.MatchString(d.Name) {
			t.Errorf("invalid metric name %q", d.Name)
		}
		if d.Help == "" {
			t.Errorf("%s has no help text", d.Name)
		}
		if d.Kind == KindCounter && !strings.HasSuffix(d.Name, "_total") {
			t.Errorf("counter %s does not end in _total", d.Name)
		}
		if d.Kind != KindCounter && strings.HasSuffix(d.Name, "_total") {
			t.Errorf("%s %s should not end in _total", d.Kind, d.Name)
		}
		if d.Binary == crawldOnly {
			continue // emitted by internal/jobs, covered in its tests
		}
		if !seen[d.Name] {
			t.Errorf("registry family %s never emitted by CollectObs", d.Name)
		}
	}
}

// TestCollectObsNilSafe mirrors the obs-wide nil-sink contract.
func TestCollectObsNilSafe(t *testing.T) {
	c := NewCollection()
	c.CollectObs(nil)
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil sink rendered %d bytes", buf.Len())
	}
}

// TestHistogramRendering checks the bucket expansion invariants exactly:
// cumulative counts, +Inf equals _count, and _sum is the true sum rather
// than Mean*Count.
func TestHistogramRendering(t *testing.T) {
	o := obs.New()
	o.SearchDone(90*time.Microsecond, false)  // first bucket (le=0.0001)
	o.SearchDone(700*time.Microsecond, false) // le=0.001
	o.SearchDone(2*time.Hour, false)          // overflow (+Inf only)
	c := NewCollection()
	c.AddHist("smartcrawl_search_latency_seconds", o.SearchLatency.Snapshot())
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`smartcrawl_search_latency_seconds_bucket{le="0.0001"} 1`,
		`smartcrawl_search_latency_seconds_bucket{le="0.001"} 2`,
		`smartcrawl_search_latency_seconds_bucket{le="60"} 2`,
		`smartcrawl_search_latency_seconds_bucket{le="+Inf"} 3`,
		`smartcrawl_search_latency_seconds_sum 7200.00079`,
		`smartcrawl_search_latency_seconds_count 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
}

// TestHandler exercises the HTTP wrapper: content type, body identity
// with WriteText, method filtering.
func TestHandler(t *testing.T) {
	o := populatedObs()
	h := Handler(func(c *Collection) { c.CollectObs(o) })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	c := NewCollection()
	c.CollectObs(o)
	var want bytes.Buffer
	if err := c.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Fatal("handler body differs from WriteText")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics: %d, want 405", rec.Code)
	}
}

// TestAddUnknownPanics pins the undocumented-metric guard.
func TestAddUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add of unregistered name did not panic")
		}
	}()
	NewCollection().Add("smartcrawl_not_a_metric_total", 1)
}

// TestEscape pins the exposition escapes and that escaping a string with
// nothing to escape allocates nothing: it runs on every family's help
// text and every label value of every scrape, and rebuilding the
// replacer per call once made up nearly all of a scrape's garbage.
func TestEscape(t *testing.T) {
	if got, want := escapeLabel("a\"b\\c\nd"), `a\"b\\c\nd`; got != want {
		t.Errorf("escapeLabel = %q, want %q", got, want)
	}
	if got, want := escapeHelp("a\"b\\c\nd"), `a"b\\c\nd`; got != want {
		t.Errorf("escapeHelp = %q, want %q", got, want)
	}
	for name, escape := range map[string]func(string) string{"escapeLabel": escapeLabel, "escapeHelp": escapeHelp} {
		if n := testing.AllocsPerRun(100, func() { escape("plain help text") }); n != 0 {
			t.Errorf("%s allocated %v times per call with nothing to escape, want 0", name, n)
		}
	}
}
