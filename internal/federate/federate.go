// Package federate materializes a federated crawl: it parses the CLI
// grammar describing a set of hidden-database interfaces H1..Hn — each
// with its own backend, top-k limit, sample, fault profile, politeness
// stack, and circuit breaker — builds the per-interface searcher
// compositions, and hands the result to crawler.NewFederatedSmart, which
// runs the Algorithm-4 loop over all of them under one global budget
// with marginal-benefit allocation (see DESIGN.md, "Federation").
//
// The package is deliberately thin: the federation semantics live in the
// crawl loop itself (the single-interface crawl is the n=1 federated
// crawl); what lives here is everything about turning "name=a,hidden=
// h1.csv,k=10;name=b,url=http://…,faults=transient10" into live
// interface handles.
package federate

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// Spec describes one search interface — the per-interface half of the
// smartcrawl CLI flags. A federated crawl has one Spec per -interfaces
// entry, a -hidden or -url crawl exactly one. Exactly one of Hidden and
// URL selects the backend.
type Spec struct {
	// Name labels the interface in metrics, traces, and WAL crash specs.
	// Defaults to h1..hn by position.
	Name string
	// Hidden is a CSV (or .jsonl) path served through the in-process
	// simulator.
	Hidden string
	// URL is a hiddenserver base URL (a remote interface).
	URL string
	// K is the simulated interface's top-k limit; remote interfaces
	// report their own k.
	K int
	// RankColumn ranks simulated results by this numeric column,
	// descending; negative selects the deterministic hash ranking.
	RankColumn int
	// NonConjunctive switches the simulator to Yelp-style any-keyword
	// matching.
	NonConjunctive bool
	// Theta draws a Bernoulli sample of the simulated backend at this
	// ratio, enabling the QSel-Est estimators for the interface; 0 runs
	// it sample-free (QSel-Simple).
	Theta float64
	// Seed seeds the Bernoulli draw (and the keyword sampler).
	Seed uint64
	// SampleTarget, for remote interfaces, builds a keyword-query sample
	// of about this many records through the interface itself; 0 runs
	// sample-free.
	SampleTarget int
	// Faults injects deterministic misbehaviour into the interface's
	// search path, client-side for a remote interface: a preset name or
	// deepweb.ParseFaultProfile's comma-joined key=value pairs (the
	// -interfaces grammar joins them with '+', as ',' separates spec
	// fields there).
	Faults string
	// FaultSeed seeds the fault schedule.
	FaultSeed uint64
	// FaultLatency delays every faulted attempt.
	FaultLatency time.Duration
	// Rate and Burst pace the interface client-side (queries/sec with a
	// token-bucket burst); 0 rate is unpaced.
	Rate  float64
	Burst int
	// Retries re-attempts transient failures with exponential backoff.
	Retries int
	// Breaker is the circuit breaker's consecutive-failure threshold for
	// this interface; 0 disables it.
	Breaker int
}

// specDefaults is the zero-flag Spec: the same defaults as the
// single-interface smartcrawl CLI.
func specDefaults() Spec {
	return Spec{K: 50, RankColumn: -1, Seed: 42, FaultSeed: 1, Burst: 10}
}

// ParseSpecs parses the -interfaces grammar: specs separated by ';',
// key=value fields separated by ','. For example:
//
//	name=yelp,hidden=yelp.csv,k=10,rank-column=3,theta=0.01;
//	name=google,url=http://localhost:8081,sample-target=200,faults=transient10,fault-seed=3,rate=5,retries=3,breaker=5
//
// Recognized keys: name, hidden, url, k, rank-column, non-conjunctive,
// theta, seed, sample-target, faults, fault-seed, fault-latency, rate,
// burst, retries, breaker. A fault spec with its own key=value pairs
// joins them with '+' where the single-interface flag uses ','.
func ParseSpecs(s string) ([]Spec, error) {
	var specs []Spec
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		sp := specDefaults()
		for _, field := range strings.Split(entry, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("federate: spec field %q: want key=value", field)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			val = strings.TrimSpace(val)
			var err error
			switch key {
			case "name":
				sp.Name = val
			case "hidden":
				sp.Hidden = val
			case "url":
				sp.URL = val
			case "k":
				sp.K, err = strconv.Atoi(val)
			case "rank-column":
				sp.RankColumn, err = strconv.Atoi(val)
			case "non-conjunctive":
				sp.NonConjunctive, err = strconv.ParseBool(val)
			case "theta":
				sp.Theta, err = strconv.ParseFloat(val, 64)
			case "seed":
				sp.Seed, err = strconv.ParseUint(val, 10, 64)
			case "sample-target":
				sp.SampleTarget, err = strconv.Atoi(val)
			case "faults":
				sp.Faults = strings.ReplaceAll(val, "+", ",")
			case "fault-seed":
				sp.FaultSeed, err = strconv.ParseUint(val, 10, 64)
			case "fault-latency":
				sp.FaultLatency, err = time.ParseDuration(val)
			case "rate":
				sp.Rate, err = strconv.ParseFloat(val, 64)
			case "burst":
				sp.Burst, err = strconv.Atoi(val)
			case "retries":
				sp.Retries, err = strconv.Atoi(val)
			case "breaker":
				sp.Breaker, err = strconv.Atoi(val)
			default:
				return nil, fmt.Errorf("federate: spec field %q: unknown key %q", field, key)
			}
			if err != nil {
				return nil, fmt.Errorf("federate: spec field %q: %v", field, err)
			}
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("federate: spec %q: %v", entry, err)
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, errors.New("federate: empty interface spec")
	}
	return specs, nil
}

// Validate checks the spec's values, each rule once for both request
// forms: ParseSpecs applies it to every -interfaces entry, and
// engine.Request.Validate to the one spec of a -hidden or -url crawl.
func (sp Spec) Validate() error {
	switch {
	case (sp.Hidden == "") == (sp.URL == ""):
		return errors.New("exactly one of hidden= and url= is required")
	case sp.Hidden != "" && sp.K <= 0:
		return errors.New("k must be > 0")
	case !(sp.Theta >= 0 && sp.Theta <= 1):
		return fmt.Errorf("theta must be in [0, 1] (0 runs sample-free), got %v", sp.Theta)
	case sp.SampleTarget < 0:
		return errors.New("sample-target must be >= 0")
	case sp.Rate > 0 && sp.Burst <= 0:
		return errors.New("burst must be > 0 when rate > 0")
	case sp.Retries < 0:
		return errors.New("retries must be >= 0")
	case sp.Breaker < 0:
		return errors.New("breaker must be >= 0")
	}
	_, err := sp.faultProfile()
	return err
}

// faultProfile parses the fault spec into a seeded profile.
func (sp Spec) faultProfile() (deepweb.FaultProfile, error) {
	p, err := deepweb.ParseFaultProfile(sp.Faults)
	if err != nil {
		return p, err
	}
	p.Seed = sp.FaultSeed
	p.Latency = sp.FaultLatency
	return p, nil
}

// withFaults wraps s in the spec's fault injector, if it has one.
func (sp Spec) withFaults(s deepweb.Searcher, o *obs.Obs) (deepweb.Searcher, error) {
	if sp.Faults == "" {
		return s, nil
	}
	p, err := sp.faultProfile()
	if err != nil {
		return nil, fmt.Errorf("federate: interface %q: %w", sp.Name, err)
	}
	return deepweb.NewFaulty(s, p).WithObs(o), nil
}

// BuildBackend materializes the spec's server-side searcher: the
// simulated hidden database (for CSV backends) wrapped in the spec's
// fault injector. The returned table is the backend's schema source, nil
// for remote backends. cmd/hiddenserver uses this to serve one profile;
// Build layers the client-side stack on top of it.
func (sp Spec) BuildBackend(tk *tokenize.Tokenizer, o *obs.Obs) (deepweb.Searcher, *relational.Table, error) {
	if sp.Hidden == "" {
		return nil, nil, fmt.Errorf("federate: interface %q has no hidden table to serve", sp.Name)
	}
	if err := sp.Validate(); err != nil {
		return nil, nil, fmt.Errorf("federate: interface %q: %w", sp.Name, err)
	}
	table, err := relational.ReadFile(sp.Hidden, "hidden")
	if err != nil {
		return nil, nil, fmt.Errorf("federate: interface %q: %w", sp.Name, err)
	}
	rank := hidden.RankByHash(0x5eed)
	if sp.RankColumn >= 0 {
		rank = hidden.RankByNumericColumn(sp.RankColumn)
	}
	mode := hidden.ModeConjunctive
	if sp.NonConjunctive {
		mode = hidden.ModeRanked
	}
	s, err := sp.withFaults(hidden.New(table, tk, sp.K, rank, mode), o)
	if err != nil {
		return nil, nil, err
	}
	return s, table, nil
}

// Build materializes the spec into a live crawler.Interface: backend (or
// HTTP client), fault injection, client-side rate limiting, retries, the
// interface's sample, and its circuit breaker. local seeds the keyword
// sampler of remote interfaces; o (nil ok) observes every layer and times
// remote sampling as the keyword_sample phase.
//
// Every crawl's interfaces are built here: engine.Run builds a -hidden or
// -url crawl as the one-interface federation of its spec. The composed
// stack, innermost first, is backend → Faulty → Limited → Retrying; a
// remote interface is probed and sampled through the bare client, before
// its faults are injected client-side. The Breaker is handed to the crawl
// loop rather than wrapped around the searcher (an open breaker diverts
// the round to the next-ranked interface instead of failing its queries).
func (sp Spec) Build(local *relational.Table, tk *tokenize.Tokenizer, o *obs.Obs) (crawler.Interface, *relational.Table, error) {
	var (
		h     = crawler.Interface{Name: sp.Name}
		table *relational.Table
		s     deepweb.Searcher
		err   error
	)
	if sp.Hidden != "" {
		s, table, err = sp.BuildBackend(tk, o)
		if err != nil {
			return h, nil, err
		}
		if sp.Theta > 0 {
			h.Sample = sample.Bernoulli(table, sp.Theta, stats.NewRNG(sp.Seed))
		}
	} else {
		// The client deliberately carries no crawl context: graceful
		// shutdown drains in-flight queries (their results are absorbed
		// and journaled), it does not abort them mid-request.
		client := &httpapi.Client{BaseURL: sp.URL, Retries: 5}
		pool := sample.SingleKeywordPool(local, tk)
		if len(pool) == 0 {
			return h, nil, errors.New("federate: local table has no indexable keywords to probe with")
		}
		if err := client.Probe(pool[0]); err != nil {
			return h, nil, fmt.Errorf("federate: interface %q: probing %s: %w", sp.Name, sp.URL, err)
		}
		if sp.SampleTarget > 0 {
			stop := o.Phase("keyword_sample")
			smp, err := sample.Keyword(client, pool, tk, sample.KeywordConfig{
				Target: sp.SampleTarget, Seed: sp.Seed,
			})
			stop()
			if err != nil {
				// An exhausted allowance still yields a usable partial
				// sample (its Theta reflects what was drawn; engine.Run
				// logs the shortfall for a -url crawl). Anything else,
				// or an empty sample, is a real failure.
				if !errors.Is(err, sample.ErrSampleBudget) || smp == nil || smp.Len() == 0 {
					return h, nil, fmt.Errorf("federate: interface %q: sampling: %w", sp.Name, err)
				}
			}
			h.Sample = smp
		}
		if s, err = sp.withFaults(client, o); err != nil {
			return h, nil, err
		}
	}
	// Client-side politeness: the token bucket paces the interface below
	// Rate whatever the worker count, and the retrying layer outside it
	// waits transient failures out with exponential backoff.
	if sp.Rate > 0 {
		s = &deepweb.Limited{S: s, B: deepweb.NewBucket(sp.Burst, sp.Rate), Obs: o}
	}
	if sp.Retries > 0 {
		s = &deepweb.Retrying{
			S:       s,
			Retries: sp.Retries,
			Backoff: deepweb.ExponentialBackoff(200*time.Millisecond, 5*time.Second),
			Obs:     o,
		}
	}
	h.Searcher = s
	if sp.Breaker > 0 {
		h.Breaker = deepweb.NewBreaker(deepweb.BreakerConfig{FailureThreshold: sp.Breaker}).WithObs(o)
	}
	return h, table, nil
}

// Federation is the materialized interface set of a federated crawl.
type Federation struct {
	// Ifaces are the live interface handles, in spec order — the order is
	// the interface ID space (crawler.Interface).
	Ifaces []crawler.Interface
	// Tables holds each CSV-backed interface's table (schema source for
	// enrichment), nil for remote backends; aligned with Ifaces.
	Tables []*relational.Table
}

// BuildAll materializes every spec, in order, naming unnamed interfaces
// h1..hn. Interface names must be unique: a duplicate is rejected here,
// before anything (a journal, a crawl) is opened against the federation.
func BuildAll(specs []Spec, local *relational.Table, tk *tokenize.Tokenizer, o *obs.Obs) (*Federation, error) {
	fed := &Federation{}
	seen := make(map[string]bool, len(specs))
	for i, sp := range specs {
		if sp.Name == "" {
			sp.Name = fmt.Sprintf("h%d", i+1)
		}
		h, table, err := sp.Build(local, tk, o)
		if err != nil {
			return nil, err
		}
		if seen[h.Name] {
			return nil, fmt.Errorf("federate: duplicate interface name %q", h.Name)
		}
		seen[h.Name] = true
		fed.Ifaces = append(fed.Ifaces, h)
		fed.Tables = append(fed.Tables, table)
	}
	return fed, nil
}

// HiddenSchema returns the first CSV-backed interface's schema — the
// enrichment schema of the crawl. When every backend is remote the schema
// is synthesized as col0..colN from the first sampled interface; nil when
// no interface exposes even a sample.
func (f *Federation) HiddenSchema() []string {
	for _, t := range f.Tables {
		if t != nil {
			return t.Schema
		}
	}
	for _, h := range f.Ifaces {
		if h.Sample != nil && h.Sample.Len() > 0 {
			schema := make([]string, len(h.Sample.Records[0].Values))
			for i := range schema {
				schema[i] = fmt.Sprintf("col%d", i)
			}
			return schema
		}
	}
	return nil
}

// NewCrawler builds the federated SMARTCRAWL crawler over the
// federation's interfaces. cfg carries the shared loop knobs (batch,
// workers, resume state, durability); per-interface knobs came from the
// specs.
func (f *Federation) NewCrawler(env *crawler.Env, cfg crawler.SmartConfig) (*crawler.Smart, error) {
	return crawler.NewFederatedSmart(env, cfg, f.Ifaces)
}

// AnyFaults reports whether any spec injects faults — the CLI uses it to
// default the graceful-degradation knobs on.
func AnyFaults(specs []Spec) bool {
	for _, sp := range specs {
		if sp.Faults != "" {
			return true
		}
	}
	return false
}
