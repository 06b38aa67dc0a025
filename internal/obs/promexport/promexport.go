// Package promexport renders the obs metric sink in the Prometheus text
// exposition format (version 0.0.4), the lingua franca of operational
// monitoring: `GET /metrics` on cmd/hiddenserver and cmd/crawld serves
// what this package writes, and any Prometheus-compatible scraper
// (Prometheus itself, VictoriaMetrics, Grafana agent, `promtool`) can
// collect a crawl fleet without bespoke glue.
//
// The package has three layers:
//
//   - A metric Registry: one Desc per exported family (name, type,
//     label names, help, which binary serves it). The registry is the
//     single source of truth — docs/METRICS.md is diffed against it by
//     a test, and Collection.Add refuses names it does not know, so an
//     undocumented metric cannot ship.
//   - A Collection: a one-scrape snapshot assembled by CollectObs (every
//     obs Counter/Gauge/FloatSum/Histogram, including per-interface and
//     fault-class breakdowns) plus any daemon-level samples the caller
//     adds (cmd/crawld adds job/tenant state).
//   - WriteText: the deterministic renderer — families sorted by name,
//     samples sorted by label signature, `# HELP`/`# TYPE` once per
//     family, histograms expanded to cumulative `_bucket`/`_sum`/
//     `_count` lines. Byte-stable output is pinned by a golden test.
//
// Rendering reads only atomics off the live sink (the same loads
// /debug/vars does), so a scraper polling /metrics cannot perturb a
// crawl; the overhead guard test holds a continuously-scraped crawl to
// the standing <2% observability budget.
package promexport

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"

	"smartcrawl/internal/obs"
)

// Kind is a Prometheus metric type.
type Kind string

// The metric kinds used by this exporter.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Desc describes one exported metric family. The full set is returned by
// Registry and documented, one table row per Desc, in docs/METRICS.md.
type Desc struct {
	Name   string   // full exposition name, e.g. smartcrawl_queries_issued_total
	Kind   Kind     // counter, gauge, or histogram
	Labels []string // intrinsic label names ("iface", "class", …); nil = unlabeled
	Help   string   // one-line meaning, rendered as # HELP
	Binary string   // which binary serves it (docs column)
}

// binServed values for the Binary column. Crawld additionally attaches
// job/tenant labels to every perJob metric — see CollectObs.
const (
	perJob     = "hiddenserver; crawld (per running job)"
	crawldOnly = "crawld"
)

// registry is the canonical family list. Order here is irrelevant —
// WriteText sorts — but keep it grouped like the obs struct for review.
var registry = []Desc{
	// Crawl-loop counters.
	{"smartcrawl_queries_issued_total", KindCounter, nil, "Queries absorbed into the crawl result (server side: searches served).", perJob},
	{"smartcrawl_records_covered_total", KindCounter, nil, "Local records newly covered by absorbed queries.", perJob},
	{"smartcrawl_solid_queries_total", KindCounter, nil, "Issued queries whose result was smaller than k (solid, triggers ΔD removal).", perJob},
	{"smartcrawl_rounds_total", KindCounter, nil, "Selection rounds dispatched by the Algorithm-4 loop.", perJob},
	{"smartcrawl_dispatched_total", KindCounter, nil, "Queries handed to the worker pool.", perJob},
	{"smartcrawl_estimate_calls_total", KindCounter, nil, "Estimator Benefit() invocations (heap rescoring).", perJob},
	{"smartcrawl_allocs_total", KindCounter, nil, "Federated budget allocations (rounds granted to an interface).", perJob},

	// Interface-pressure counters.
	{"smartcrawl_search_errors_total", KindCounter, nil, "Failed searches, budget exhaustion excluded.", perJob},
	{"smartcrawl_retried_calls_total", KindCounter, nil, "Searches that needed at least one retry.", perJob},
	{"smartcrawl_retries_total", KindCounter, nil, "Individual search re-attempts.", perJob},
	{"smartcrawl_rate_limited_total", KindCounter, nil, "Client-side token-bucket denials.", perJob},
	{"smartcrawl_checkpoints_total", KindCounter, nil, "Checkpoint writes (journal→snapshot compactions included).", perJob},

	// Resilience counters.
	{"smartcrawl_faults_injected_total", KindCounter, []string{"class"}, "Faults injected by a deepweb.Faulty wrapper, by fault class.", perJob},
	{"smartcrawl_truncations_total", KindCounter, nil, "Results absorbed partially (short pages).", perJob},
	{"smartcrawl_requeues_total", KindCounter, nil, "Failed selections pushed back into the pool.", perJob},
	{"smartcrawl_forfeits_total", KindCounter, nil, "Selections given up after their attempt cap.", perJob},
	{"smartcrawl_refunds_total", KindCounter, nil, "Budget units refunded (never charged by the interface).", perJob},
	{"smartcrawl_breaker_trips_total", KindCounter, nil, "Circuit-breaker transitions into open.", perJob},
	{"smartcrawl_breaker_state", KindGauge, nil, "Current circuit-breaker position: 0 closed, 1 open, 2 half-open.", perJob},
	{"smartcrawl_deadline_forfeits_total", KindCounter, nil, "Forfeits attributed to the crawl deadline (subset of forfeits; budget refunded).", perJob},
	{"smartcrawl_retry_budget_denied_total", KindCounter, nil, "Requeues refused because the retry budget was dry (subset of forfeits).", perJob},

	// Durability counters.
	{"smartcrawl_wal_appends_total", KindCounter, nil, "Records appended to the write-ahead journal.", perJob},
	{"smartcrawl_wal_bytes_total", KindCounter, nil, "Journal bytes written, framing headers included.", perJob},
	{"smartcrawl_wal_fsyncs_total", KindCounter, nil, "Journal fsync calls.", perJob},
	{"smartcrawl_recoveries_total", KindCounter, nil, "Crash recoveries performed (snapshot and/or journal replayed).", perJob},
	{"smartcrawl_wal_fsync_latency_seconds", KindHistogram, nil, "Latency of journal fsync calls.", perJob},

	// Index construction and rate-limiter level.
	{"smartcrawl_index_builds_total", KindCounter, nil, "Inverted-index builds.", perJob},
	{"smartcrawl_index_shards", KindGauge, nil, "Shard count of the most recent index build.", perJob},
	{"smartcrawl_rate_bucket_tokens", KindGauge, nil, "Token-bucket level observed at the most recent rate-limit denial.", perJob},

	// Search latency.
	{"smartcrawl_search_latency_seconds", KindHistogram, nil, "Round-trip latency of dispatched queries.", perJob},

	// Estimate-vs-realized benefit accounting.
	{"smartcrawl_benefit_pairs_total", KindCounter, nil, "Absorbed queries contributing an estimate/realized benefit pair.", perJob},
	{"smartcrawl_benefit_estimated_total", KindCounter, nil, "Sum of estimated benefits at selection time.", perJob},
	{"smartcrawl_benefit_realized_total", KindCounter, nil, "Sum of realized coverage deltas.", perJob},
	{"smartcrawl_benefit_abs_error_total", KindCounter, nil, "Sum of |estimated − realized| benefit (MAE numerator).", perJob},

	// Phase wall-clock.
	{"smartcrawl_phase_seconds_total", KindCounter, []string{"phase"}, "Accumulated wall-clock per lifecycle phase (sampling, pool build, crawl, …).", perJob},

	// Per-interface counters of a federated crawl.
	{"smartcrawl_iface_queries_issued_total", KindCounter, []string{"iface"}, "Queries absorbed from this interface.", perJob},
	{"smartcrawl_iface_records_covered_total", KindCounter, []string{"iface"}, "Local records this interface's results newly covered.", perJob},
	{"smartcrawl_iface_solid_queries_total", KindCounter, []string{"iface"}, "Absorbed queries solid under this interface's k.", perJob},
	{"smartcrawl_iface_allocs_total", KindCounter, []string{"iface"}, "Rounds the allocator granted this interface.", perJob},
	{"smartcrawl_iface_search_errors_total", KindCounter, []string{"iface"}, "Failed dispatches recorded against this interface.", perJob},
	{"smartcrawl_iface_requeues_total", KindCounter, []string{"iface"}, "Failed selections requeued after failing on this interface.", perJob},
	{"smartcrawl_iface_forfeits_total", KindCounter, []string{"iface"}, "Selections forfeited after failing on this interface.", perJob},
	{"smartcrawl_iface_breaker_holds_total", KindCounter, []string{"iface"}, "Rounds held by this interface's circuit breaker.", perJob},
	{"smartcrawl_iface_health_score", KindGauge, []string{"iface"}, "Interface health score in milli-units (1000 = fully healthy); absent unless health scoring is enabled.", perJob},
	{"smartcrawl_iface_probes_total", KindCounter, []string{"iface"}, "Recovery-probe rounds granted to this interface while degraded.", perJob},

	// Daemon-level families added by crawld's collector (internal/jobs).
	{"crawld_jobs", KindGauge, []string{"state"}, "Jobs in the registry by state (queued, running, done, failed, canceled).", crawldOnly},
	{"crawld_draining", KindGauge, nil, "1 while the daemon is draining (no new admissions), else 0.", crawldOnly},
	{"crawld_tenant_reserved_queries", KindGauge, []string{"tenant"}, "Committed budget per tenant: live reservations plus settled charges.", crawldOnly},
	{"crawld_tenant_budget_cap_queries", KindGauge, nil, "Per-tenant lifetime query budget (-tenant-budget; 0 = unlimited).", crawldOnly},
	{"crawld_shed_total", KindCounter, []string{"reason"}, "Job submissions shed at admission, by reason (disk, queue, rate, budget, draining).", crawldOnly},
	{"crawld_events_dropped_total", KindCounter, nil, "Step events evicted from bounded per-job event buffers before any consumer read them.", crawldOnly},
}

var descByName = func() map[string]*Desc {
	m := make(map[string]*Desc, len(registry))
	for i := range registry {
		m[registry[i].Name] = &registry[i]
	}
	return m
}()

// Registry returns a copy of every exported metric family descriptor, in
// declaration order. docs/METRICS.md must enumerate exactly this set —
// a test diffs the two.
func Registry() []Desc {
	return append([]Desc(nil), registry...)
}

// Label is one name="value" pair on a sample.
type Label struct{ Name, Value string }

// sample is one rendered line-to-be: a family member with its labels.
type sample struct {
	labels []Label
	value  float64
	hist   *obs.HistogramSnapshot // non-nil for histogram families
}

// Collection is the snapshot of one scrape: samples grouped by family,
// assembled by CollectObs and caller Adds, rendered by WriteText.
type Collection struct {
	byFamily map[string][]sample
}

// NewCollection returns an empty scrape snapshot.
func NewCollection() *Collection {
	return &Collection{byFamily: make(map[string][]sample)}
}

// Add records one counter/gauge sample. The family name must be in the
// registry — an unknown name is a programming error (an undocumented
// metric) and panics so tests catch it immediately.
func (c *Collection) Add(name string, value float64, labels ...Label) {
	d, ok := descByName[name]
	if !ok {
		panic("promexport: metric " + name + " is not in the registry")
	}
	if d.Kind == KindHistogram {
		panic("promexport: " + name + " is a histogram; use AddHist")
	}
	c.byFamily[name] = append(c.byFamily[name], sample{labels: labels, value: value})
}

// AddHist records one histogram sample from an obs histogram snapshot.
func (c *Collection) AddHist(name string, hs obs.HistogramSnapshot, labels ...Label) {
	d, ok := descByName[name]
	if !ok {
		panic("promexport: metric " + name + " is not in the registry")
	}
	if d.Kind != KindHistogram {
		panic("promexport: " + name + " is not a histogram")
	}
	c.byFamily[name] = append(c.byFamily[name], sample{labels: labels, hist: &hs})
}

// CollectObs snapshots every metric of one obs sink into the collection,
// attaching base to every sample. Plain families are always emitted
// (zero-valued included) so the scrape shape is stable; dynamically
// labeled families (fault class, interface, phase) appear once their
// first label value exists. A nil sink collects nothing.
//
// cmd/hiddenserver calls this once with no base labels (the process-wide
// sink); cmd/crawld calls it per running job with job/tenant labels.
func (c *Collection) CollectObs(o *obs.Obs, base ...Label) {
	if o == nil {
		return
	}
	add := func(name string, v float64) { c.Add(name, v, base...) }

	add("smartcrawl_queries_issued_total", float64(o.QueriesIssued.Value()))
	add("smartcrawl_records_covered_total", float64(o.RecordsCovered.Value()))
	add("smartcrawl_solid_queries_total", float64(o.SolidQueries.Value()))
	add("smartcrawl_rounds_total", float64(o.Rounds.Value()))
	add("smartcrawl_dispatched_total", float64(o.Dispatched.Value()))
	add("smartcrawl_estimate_calls_total", float64(o.EstimateCalls.Value()))
	add("smartcrawl_allocs_total", float64(o.Allocs.Value()))

	add("smartcrawl_search_errors_total", float64(o.SearchErrors.Value()))
	add("smartcrawl_retried_calls_total", float64(o.RetriedCalls.Value()))
	add("smartcrawl_retries_total", float64(o.Retries.Value()))
	add("smartcrawl_rate_limited_total", float64(o.RateLimited.Value()))
	add("smartcrawl_checkpoints_total", float64(o.Checkpoints.Value()))

	for _, class := range sortedClassKeys(o.FaultsByClass()) {
		c.Add("smartcrawl_faults_injected_total", float64(o.FaultsByClass()[class]),
			append(append([]Label(nil), base...), Label{"class", class})...)
	}
	add("smartcrawl_truncations_total", float64(o.Truncations.Value()))
	add("smartcrawl_requeues_total", float64(o.Requeues.Value()))
	add("smartcrawl_forfeits_total", float64(o.Forfeits.Value()))
	add("smartcrawl_refunds_total", float64(o.Refunds.Value()))
	add("smartcrawl_breaker_trips_total", float64(o.BreakerTrips.Value()))
	add("smartcrawl_breaker_state", float64(o.BreakerState.Value()))
	add("smartcrawl_deadline_forfeits_total", float64(o.DeadlineForfeits.Value()))
	add("smartcrawl_retry_budget_denied_total", float64(o.RetryBudgetDenied.Value()))

	add("smartcrawl_wal_appends_total", float64(o.WalAppends.Value()))
	add("smartcrawl_wal_bytes_total", float64(o.WalBytes.Value()))
	add("smartcrawl_wal_fsyncs_total", float64(o.WalFsyncs.Value()))
	add("smartcrawl_recoveries_total", float64(o.Recoveries.Value()))
	c.AddHist("smartcrawl_wal_fsync_latency_seconds", o.WalFsyncLatency.Snapshot(), base...)

	add("smartcrawl_index_builds_total", float64(o.IndexBuilds.Value()))
	add("smartcrawl_index_shards", float64(o.IndexShards.Value()))
	add("smartcrawl_rate_bucket_tokens", float64(o.BucketTokens.Value())/1000)

	c.AddHist("smartcrawl_search_latency_seconds", o.SearchLatency.Snapshot(), base...)

	add("smartcrawl_benefit_pairs_total", float64(o.BenefitPairs.Value()))
	add("smartcrawl_benefit_estimated_total", o.BenefitEst.Value())
	add("smartcrawl_benefit_realized_total", o.BenefitReal.Value())
	add("smartcrawl_benefit_abs_error_total", o.BenefitAbsErr.Value())

	names, durs := o.PhaseDurations()
	for i, name := range names {
		c.Add("smartcrawl_phase_seconds_total", durs[i].Seconds(),
			append(append([]Label(nil), base...), Label{"phase", name})...)
	}

	for _, name := range o.IfaceNames() {
		im := o.Iface(name)
		ilabels := append(append([]Label(nil), base...), Label{"iface", name})
		c.Add("smartcrawl_iface_queries_issued_total", float64(im.Queries.Value()), ilabels...)
		c.Add("smartcrawl_iface_records_covered_total", float64(im.Covered.Value()), ilabels...)
		c.Add("smartcrawl_iface_solid_queries_total", float64(im.Solid.Value()), ilabels...)
		c.Add("smartcrawl_iface_allocs_total", float64(im.Allocs.Value()), ilabels...)
		c.Add("smartcrawl_iface_search_errors_total", float64(im.Errors.Value()), ilabels...)
		c.Add("smartcrawl_iface_requeues_total", float64(im.Requeues.Value()), ilabels...)
		c.Add("smartcrawl_iface_forfeits_total", float64(im.Forfeits.Value()), ilabels...)
		c.Add("smartcrawl_iface_breaker_holds_total", float64(im.Holds.Value()), ilabels...)
		// Health families appear only when scoring is enabled — the
		// crawler initializes the gauge to 1000 at start — so scrapes of
		// health-disabled runs keep their pre-existing shape.
		if hs := im.HealthScore.Value(); hs > 0 {
			c.Add("smartcrawl_iface_health_score", float64(hs), ilabels...)
			c.Add("smartcrawl_iface_probes_total", float64(im.Probes.Value()), ilabels...)
		}
	}
}

func sortedClassKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the collection in the Prometheus text exposition
// format: families sorted by name, `# HELP`/`# TYPE` once per family,
// samples sorted by label signature, histograms as cumulative
// `_bucket{le=…}` lines plus `_sum`/`_count`. Output is deterministic
// for a fixed collection — a golden test pins the bytes. The exposition
// is assembled in one buffer and written to w in a single Write.
func (c *Collection) WriteText(w io.Writer) error {
	names := make([]string, 0, len(c.byFamily))
	for name := range c.byFamily {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		d := descByName[name]
		b = append(b, "# HELP "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(d.Help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, d.Kind...)
		b = append(b, '\n')
		// Each sample's label signature is rendered once: it is both the
		// sort key and the rendered label set.
		samples := c.byFamily[name]
		sigs := make([]string, len(samples))
		order := make([]int, len(samples))
		for i := range samples {
			sigs[i] = string(appendLabels(nil, samples[i].labels))
			order[i] = i
		}
		slices.SortStableFunc(order, func(i, j int) int { return strings.Compare(sigs[i], sigs[j]) })
		for _, i := range order {
			if hs := samples[i].hist; hs != nil {
				b = appendHist(b, name, samples[i].labels, sigs[i], hs)
				continue
			}
			b = append(b, name...)
			b = append(b, sigs[i]...)
			b = append(b, ' ')
			b = appendValue(b, samples[i].value)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// appendHist expands one histogram sample: cumulative buckets by upper
// bound in seconds, the +Inf bucket, exact sum, and count. sig is the
// rendered labels of the sample.
func appendHist(b []byte, name string, labels []Label, sig string, hs *obs.HistogramSnapshot) []byte {
	bucketLabels := append(append(make([]Label, 0, len(labels)+1), labels...), Label{"le", ""})
	var cum int64
	for i, n := range hs.Buckets {
		cum += n
		le := "+Inf"
		if i < len(hs.Bounds) {
			le = formatValue(hs.Bounds[i].Seconds())
		}
		bucketLabels[len(labels)].Value = le
		b = append(b, name...)
		b = append(b, "_bucket"...)
		b = appendLabels(b, bucketLabels)
		b = append(b, ' ')
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, "_sum"...)
	b = append(b, sig...)
	b = append(b, ' ')
	b = appendValue(b, hs.Sum.Seconds())
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count"...)
	b = append(b, sig...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, hs.Count, 10)
	return append(b, '\n')
}

// appendLabels appends {a="x",b="y"} with label names sorted; an empty
// label set appends nothing.
func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	var arr [8]Label // sort a copy, on the stack for up to 8 labels
	ls := append(arr[:0], labels...)
	slices.SortStableFunc(ls, func(x, y Label) int { return strings.Compare(x.Name, y.Name) })
	b = append(b, '{')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, `="`...)
		b = append(b, escapeLabel(l.Value)...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// formatValue renders a sample value: integral values as integers (the
// common case — counters), everything else in shortest float form.
func formatValue(v float64) string { return string(appendValue(nil, v)) }

// appendValue appends v as formatValue renders it.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// The escapers are built once: a Replacer compiles its lookup table on
// first use, and that table dominated a scrape's allocations when it was
// rebuilt per call. A Replacer is safe for concurrent use.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// Handler serves GET /metrics: collect invokes the caller's gatherers
// into a fresh Collection per scrape, and the rendered exposition is
// written with the standard text-format content type.
func Handler(collect func(*Collection)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		c := NewCollection()
		collect(c)
		var buf bytes.Buffer
		if err := c.WriteText(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}
