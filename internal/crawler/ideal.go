package crawler

import (
	"errors"
	"fmt"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/index"
	"smartcrawl/internal/lazyheap"
	"smartcrawl/internal/querypool"
)

// Ideal is IDEALCRAWL: the QSel-Ideal greedy of Algorithm 1, which selects
// at each iteration the query with the largest *true* benefit
// |q(D)_cover|. True benefits require knowing each query's result before
// issuing it — the paper's "chicken-and-egg" problem — so Ideal holds an
// oracle handle to the hidden database and exists purely as the upper
// bound the estimators are measured against. Oracle peeks are not charged
// to the budget; only the b greedy selections are.
type Ideal struct {
	env    *Env
	oracle *hidden.Database
	cfg    querypool.Config
}

// NewIdeal constructs the oracle crawler. The environment's Searcher is
// ignored for benefit computation (results come from the oracle) but its
// budget accounting semantics are reproduced: exactly one query charge per
// selection.
func NewIdeal(env *Env, oracle *hidden.Database, poolCfg querypool.Config) (*Ideal, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if oracle == nil {
		return nil, errors.New("crawler: ideal crawler needs an oracle")
	}
	return &Ideal{env: env, oracle: oracle, cfg: poolCfg}, nil
}

// Name implements Crawler.
func (c *Ideal) Name() string { return "idealcrawl" }

// Run implements Crawler. Results are deterministic (§2), so each query's
// covered set is precomputed once; the greedy then runs entirely on those
// sets with the same lazy-invalidation machinery SMARTCRAWL uses, giving
// an exact argmax-by-true-benefit at every step.
func (c *Ideal) Run(budget int) (*Result, error) {
	env := c.env
	t := newTracker(env)
	pool := querypool.Generate(env.Local, env.Tokenizer, c.cfg)

	// Precompute, per query, the local records its top-k result covers.
	type iqstate struct {
		q       *querypool.Query
		covers  []int // local IDs covered by q's result
		benefit int   // live |covers ∩ uncovered|
		issued  bool
	}
	states := make([]*iqstate, pool.Len())
	fwd := index.NewForwardDense(env.Local.Len())
	heap := lazyheap.New()
	for _, q := range pool.Queries {
		recs, err := c.oracle.Search(q.Keywords)
		if err != nil {
			return nil, fmt.Errorf("crawler: oracle peek %q: %w", q.Keywords, err)
		}
		covers := t.joiner.CoveredBy(recs)
		if len(covers) == 0 {
			continue
		}
		st := &iqstate{q: q, covers: covers, benefit: len(covers)}
		states[q.ID] = st
		for _, d := range covers {
			fwd.Add(d, uint32(q.ID))
		}
		heap.Push(q.ID, float64(st.benefit))
	}

	uncovered := env.Local.Len()
	rescore := func(qid int) (float64, bool) {
		st := states[qid]
		if st == nil || st.issued || st.benefit <= 0 {
			return 0, false
		}
		return float64(st.benefit), true
	}

	counting := deepweb.NewCounting(c.oracle, budget)
	for !counting.Exhausted() && uncovered > 0 {
		qid, benefit, ok := heap.Pop(rescore)
		if !ok {
			break
		}
		st := states[qid]
		st.issued = true
		recs, err := counting.Search(st.q.Keywords)
		if errors.Is(err, deepweb.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			return nil, err
		}
		newly := t.absorb(st.q.Keywords, benefit, recs)
		for _, d := range newly {
			for _, q2 := range fwd.Remove(d) {
				if st2 := states[q2]; st2 != nil && !st2.issued {
					st2.benefit--
					heap.Invalidate(int(q2))
				}
			}
			uncovered--
		}
	}
	return t.res, nil
}
