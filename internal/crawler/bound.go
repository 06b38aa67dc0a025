package crawler

import (
	"errors"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/index"
	"smartcrawl/internal/querypool"
)

// Bound is QSel-Bound (Algorithm 3): like QSel-Simple it selects the query
// with the largest |q(D)|, but it reacts differently after issuing. If the
// query covered everything it matched (|q(ΔD)| = 0) the covered records
// leave D and the query leaves the pool; otherwise only the unmatched
// records q(ΔD) = q(D) − q(D)_cover leave D and the query STAYS in the
// pool, possibly to be selected (and charged) again. That conservatism
// buys the Lemma 2 guarantee N_bound ≥ (1 − |ΔD|/b)·N_ideal at the cost of
// wasted budget — which is why the paper sticks with QSel-Simple in
// practice. Implemented with an eager argmax scan: re-selection of kept
// queries breaks the monotone-priority invariant the lazy heap needs.
type Bound struct {
	env *Env
	cfg querypool.Config
	// Reselections counts how many issued queries were repeat selections
	// of a query kept in the pool — the wasted budget the guarantee
	// costs (reported by the E9 bench).
	Reselections int
}

// NewBound constructs a QSel-Bound crawler.
func NewBound(env *Env, poolCfg querypool.Config) (*Bound, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	return &Bound{env: env, cfg: poolCfg}, nil
}

// Name implements Crawler.
func (c *Bound) Name() string { return "qsel-bound" }

// Run implements Crawler.
func (c *Bound) Run(budget int) (*Result, error) {
	env := c.env
	t := newTracker(env)
	counting := deepweb.NewCounting(env.Searcher, budget)

	pool := querypool.Generate(env.Local, env.Tokenizer, c.cfg)
	invD := index.BuildInvertedIDs(env.Local.Records, env.Tokenizer, pool.Dict, 1)

	inD := make([]bool, env.Local.Len())
	for i := range inD {
		inD[i] = true
	}
	remaining := env.Local.Len()

	type bqstate struct {
		q      *querypool.Query
		qD     []uint32
		inPool bool
		issued int
	}
	states := make([]*bqstate, 0, pool.Len())
	for _, q := range pool.Queries {
		qD := invD.Lookup(q.IDs)
		if len(qD) > 0 {
			states = append(states, &bqstate{q: q, qD: qD, inPool: true})
		}
	}

	liveFreq := func(st *bqstate) int {
		n := 0
		for _, d := range st.qD {
			if inD[d] {
				n++
			}
		}
		return n
	}

	for !counting.Exhausted() && remaining > 0 {
		// Eager argmax |q(D)| over the current pool.
		var best *bqstate
		bestFreq := 0
		for _, st := range states {
			if !st.inPool {
				continue
			}
			if f := liveFreq(st); f > bestFreq {
				best, bestFreq = st, f
			}
		}
		if best == nil {
			break
		}

		recs, err := counting.Search(best.q.Keywords)
		if errors.Is(err, deepweb.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			return nil, err
		}
		best.issued++
		if best.issued > 1 {
			c.Reselections++
		}
		t.absorb(best.q.Keywords, float64(bestFreq), recs)

		// q(ΔD) relative to the current D: matched records of q(D)
		// are covered; unmatched ones are the ΔD prediction.
		var qDeltaD []uint32
		for _, d := range best.qD {
			if inD[d] && !t.res.Covered[d] {
				qDeltaD = append(qDeltaD, d)
			}
		}
		if len(qDeltaD) == 0 {
			// Situation 1: estimate was exact. Remove covered
			// records and retire the query.
			for _, d := range best.qD {
				if inD[d] {
					inD[d] = false
					remaining--
				}
			}
			best.inPool = false
		} else {
			// Situation 2: remove only q(ΔD); keep the query.
			for _, d := range qDeltaD {
				inD[d] = false
				remaining--
			}
		}
	}
	return t.res, nil
}
