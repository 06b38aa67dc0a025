package crawler

import (
	"errors"
	"fmt"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/sample"
)

// Interface is one hidden-database interface of a federated crawl: its
// searcher (already composed with whatever fault-injection, rate-limit, and
// retry layers the caller wants — see internal/federate), its own sample
// and estimator (interfaces have different contents, so benefit estimation
// is strictly per interface), and its own circuit breaker. The slice index
// an Interface occupies in NewFederatedSmart is its interface ID: it tags
// steps, WAL records, and checkpoints, namespaces hidden record IDs, and
// breaks allocation ties, so the order must be stable across sessions for
// a federated crawl to resume byte-identically.
type Interface struct {
	// Name labels the interface in obs metrics and traces. Required and
	// unique within a federation.
	Name string
	// Searcher is the interface handle. Its K() may differ per interface;
	// solidity and §4.2 ΔD removal are judged against the issuing
	// interface's k.
	Searcher deepweb.Searcher
	// Sample is this interface's hidden-database sample Hs with its ratio
	// θ; nil runs this interface sample-free (QSel-Simple).
	Sample *sample.Sample
	// Estimator selects this interface's benefit estimator; nil defaults
	// like NewSmart (Biased with a sample, Frequency without).
	Estimator estimator.Estimator
	// Breaker, when non-nil, gates rounds allocated to this interface; an
	// open breaker makes the allocator fall through to the next-ranked
	// interface instead of holding the whole crawl.
	Breaker *deepweb.Breaker
}

// NewFederatedSmart constructs a SMARTCRAWL crawler over a set of
// interfaces H1..Hn sharing one global budget. Round by round the loop
// allocates the next batch to the interface whose best unissued query
// promises the largest marginal benefit (per-interface estimator state,
// deterministic tie-break by interface index); results merge into one
// coverage set with cross-interface entity dedupe via the shared Joiner.
// With a single interface the run is byte-identical — query log, coverage,
// checkpoint — to NewSmart over that interface's searcher, because it is
// the same loop.
//
// Per-interface knobs live on Interface; the config's Sample, Estimator,
// and Breaker fields must be unset. EagerSelection is incompatible with
// more than one interface (the allocator ranks interfaces through their
// lazy queues).
func NewFederatedSmart(env *Env, cfg SmartConfig, ifaces []Interface) (*Smart, error) {
	if err := env.validateFederated(); err != nil {
		return nil, err
	}
	if len(ifaces) == 0 {
		return nil, errors.New("crawler: federated crawl needs at least one interface")
	}
	if cfg.Sample != nil || cfg.Estimator != nil || cfg.Breaker != nil {
		return nil, errors.New("crawler: federated crawl takes Sample/Estimator/Breaker per interface, not in SmartConfig")
	}
	if cfg.EagerSelection && len(ifaces) > 1 {
		return nil, errors.New("crawler: EagerSelection is incompatible with multiple interfaces")
	}
	own := append([]Interface(nil), ifaces...)
	seen := make(map[string]bool, len(own))
	for i := range own {
		h := &own[i]
		if h.Name == "" {
			h.Name = fmt.Sprintf("h%d", i+1)
		}
		if seen[h.Name] {
			return nil, fmt.Errorf("crawler: duplicate interface name %q", h.Name)
		}
		seen[h.Name] = true
		if h.Searcher == nil {
			return nil, fmt.Errorf("crawler: interface %q has no searcher", h.Name)
		}
		if err := h.defaults(cfg.OnlineCalibration, fmt.Sprintf("crawler: interface %q: ", h.Name)); err != nil {
			return nil, err
		}
	}
	return &Smart{env: env, cfg: cfg, ifaces: own}, nil
}
