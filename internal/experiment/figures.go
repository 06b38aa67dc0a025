package experiment

import (
	"fmt"
	"slices"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/fixture"
	"smartcrawl/internal/index"
	"smartcrawl/internal/match"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
)

// checkpoints returns n evenly spaced budget checkpoints up to max.
func checkpoints(max, n int) []int {
	if n <= 0 {
		n = 10
	}
	if max < n {
		n = max
	}
	out := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, max*i/n)
	}
	return out
}

// curveTable runs the named approaches once at full budget each and renders
// their truth-coverage curves at the checkpoints.
func (s *Setup) curveTable(title string, budget int, approaches []Approach) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"budget"},
	}
	cps := checkpoints(budget, 10)
	curves := make([][]int, len(approaches))
	for i, a := range approaches {
		res, err := s.Run(a, budget)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		curves[i] = s.CoverageCurve(res)
		t.Header = append(t.Header, string(a))
	}
	for _, b := range cps {
		row := []interface{}{b}
		for _, c := range curves {
			row = append(row, CoverageAt(c, b))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table2RunningExample reproduces Table 2: the true benefit of each
// running-example pool query versus its biased-estimator value (k = 2,
// θ = 1/3), before any query is issued.
func Table2RunningExample() (*Table, error) {
	u := fixture.New()
	pool := querypool.Generate(u.Local, u.Tokenizer, querypool.Config{MinSupport: 2, MaxQueryLen: 3})
	invD := index.BuildInvertedIDs(u.Local.Records, u.Tokenizer, pool.Dict, 1)
	invS := index.BuildInvertedIDs(reID(u.Sample.Records), u.Tokenizer, pool.Dict, 1)

	// Matching on the name column (hidden records carry ratings).
	matcher := match.NewExactOn(u.Tokenizer, nil, []int{0})
	joiner := match.NewJoiner(u.Local.Records, u.Tokenizer, matcher)

	t := &Table{
		Title:  "Table 2: true vs estimated benefits (running example, k=2, θ=1/3)",
		Header: []string{"query", "|q(D)|", "|q(Hs)|", "type", "true benefit", "biased est", "unbiased est"},
	}
	biased, unbiased := estimator.Biased{}, estimator.Unbiased{}
	for _, q := range pool.Queries {
		qD := invD.Lookup(q.IDs)
		freqS := invS.Count(q.IDs)
		matchS := 0
		for _, pos := range invS.Lookup(q.IDs) {
			for _, d := range joiner.Matches(u.Sample.Records[pos]) {
				if _, ok := slices.BinarySearch(qD, uint32(d)); ok {
					matchS++
				}
			}
		}
		st := estimator.Stats{
			FreqD: len(qD), FreqSample: freqS, MatchSample: matchS,
			Theta: u.Theta, K: u.K,
		}
		// True benefit: issue against the oracle.
		recs, err := u.DB.Search(q.Keywords)
		if err != nil {
			return nil, err
		}
		trueBenefit := len(joiner.CoveredBy(recs))
		qtype := "solid"
		if estimator.PredictOverflow(st) {
			qtype = "overflow"
		}
		t.AddRow(q.Keywords.String(), len(qD), freqS, qtype,
			trueBenefit, biased.Benefit(st), unbiased.Benefit(st))
	}
	t.Notes = append(t.Notes,
		"biased estimates should track true benefits closely; unbiased ones are coarse multiples of 1/θ")
	return t, nil
}

// Figure4 reproduces Figure 4: the impact of the sampling ratio.
// Tables: (a) coverage vs budget at θ = 0.2%; (b) at θ = 1%; (c) coverage
// at the default budget as θ sweeps 0.1% → 1%.
func Figure4(p Params) ([]*Table, error) {
	var out []*Table
	approaches := []Approach{Ideal, SmartB, SmartU, Full, Naive}

	for _, theta := range []float64{0.002, 0.01} {
		pp := p
		pp.Theta = theta
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		t, err := s.curveTable(
			fmt.Sprintf("Figure 4(%c): coverage vs budget, θ=%.1f%%", 'a'+len(out), theta*100),
			pp.Budget, approaches)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "expected: smartcrawl-b ≈ idealcrawl ≫ fullcrawl > naivecrawl; smartcrawl-u weak at small θ")
		out = append(out, t)
	}

	sweep := &Table{
		Title:  fmt.Sprintf("Figure 4(c): coverage at b=%d vs sampling ratio", p.Budget),
		Header: []string{"theta", string(Ideal), string(SmartB), string(SmartU), string(Full), string(Naive)},
	}
	for _, theta := range []float64{0.001, 0.002, 0.005, 0.01} {
		pp := p
		pp.Theta = theta
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		row := []interface{}{fmt.Sprintf("%.1f%%", theta*100)}
		for _, a := range []Approach{Ideal, SmartB, SmartU, Full, Naive} {
			res, err := s.Run(a, pp.Budget)
			if err != nil {
				return nil, err
			}
			row = append(row, s.TruthCoverage(res))
		}
		sweep.AddRow(row...)
	}
	sweep.Notes = append(sweep.Notes, "expected: smartcrawl-b closes on idealcrawl as θ grows; smartcrawl-u improves with θ")
	out = append(out, sweep)
	return out, nil
}

// Figure5 reproduces Figure 5: the impact of the local database size.
// Tables: coverage-vs-budget curves for two small |D| values, then
// relative coverage as |D| sweeps across four orders of magnitude.
func Figure5(p Params) ([]*Table, error) {
	var out []*Table
	approaches := []Approach{Ideal, SmartB, Full, Naive}

	// The paper's |D| = 100 and |D| = 1000 panels, scaled by |H|.
	small := p.HiddenSize / 1000
	if small < 20 {
		small = 20
	}
	for _, localSize := range []int{small, small * 10} {
		pp := p
		pp.LocalSize = localSize
		pp.Budget = maxInt(localSize/2, 10)
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		t, err := s.curveTable(
			fmt.Sprintf("Figure 5: coverage vs budget, |D|=%d (|H|=%d)", localSize, pp.HiddenSize),
			pp.Budget, approaches)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "expected: fullcrawl collapses when |D| ≪ |H|")
		out = append(out, t)
	}

	sweep := &Table{
		Title:  "Figure 5(c): relative coverage vs |D| (b = 20% |D|)",
		Header: []string{"|D|", string(Ideal), string(SmartB), string(Full), string(Naive)},
	}
	for _, frac := range []float64{0.0005, 0.005, 0.05, 0.1} {
		localSize := int(frac * float64(p.HiddenSize))
		if localSize < 10 {
			localSize = 10
		}
		pp := p
		pp.LocalSize = localSize
		pp.Budget = maxInt(localSize/5, 5)
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		row := []interface{}{localSize}
		for _, a := range []Approach{Ideal, SmartB, Full, Naive} {
			res, err := s.Run(a, pp.Budget)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f%%",
				100*float64(s.TruthCoverage(res))/float64(s.MaxCoverable())))
		}
		sweep.AddRow(row...)
	}
	sweep.Notes = append(sweep.Notes,
		"expected: every approach except naivecrawl improves with |D| (query sharing); naivecrawl flat at ≈ b/|D|")
	out = append(out, sweep)
	return out, nil
}

// Figure6 reproduces Figure 6: the impact of the top-k result limit.
func Figure6(p Params) ([]*Table, error) {
	var out []*Table
	approaches := []Approach{Ideal, SmartB, Full, Naive}

	for _, k := range []int{50, 500} {
		pp := p
		pp.K = k
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		t, err := s.curveTable(
			fmt.Sprintf("Figure 6: coverage vs budget, k=%d", k),
			pp.Budget, approaches)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}

	sweep := &Table{
		Title:  fmt.Sprintf("Figure 6(c): coverage at b=%d vs k", p.Budget),
		Header: []string{"k", string(Ideal), string(SmartB), string(Full), string(Naive)},
	}
	for _, k := range []int{1, 50, 100, 500} {
		pp := p
		pp.K = k
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		row := []interface{}{k}
		for _, a := range []Approach{Ideal, SmartB, Full, Naive} {
			res, err := s.Run(a, pp.Budget)
			if err != nil {
				return nil, err
			}
			row = append(row, s.TruthCoverage(res))
		}
		sweep.AddRow(row...)
	}
	sweep.Notes = append(sweep.Notes,
		"expected: naivecrawl flat in k; smartcrawl-b ≈ naivecrawl at k=1, grows with k")
	out = append(out, sweep)
	return out, nil
}

// Figure7 reproduces Figure 7: the impact of |ΔD| on the biased estimator.
func Figure7(p Params) ([]*Table, error) {
	var out []*Table
	approaches := []Approach{Ideal, SmartB, Simple, Full, Naive}
	for _, frac := range []float64{0.05, 0.20, 0.30} {
		pp := p
		pp.DeltaD = int(frac * float64(p.LocalSize))
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		t, err := s.curveTable(
			fmt.Sprintf("Figure 7: coverage vs budget, |ΔD| = %.0f%% of |D|", frac*100),
			pp.Budget, approaches)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes,
			"expected: smartcrawl-b drifts from idealcrawl as |ΔD| grows but stays on top of the baselines")
		out = append(out, t)
	}
	return out, nil
}

// Figure8 reproduces Figure 8: robustness to fuzzy matching (error%).
func Figure8(p Params) ([]*Table, error) {
	var out []*Table
	for _, errRate := range []float64{0.05, 0.50} {
		pp := p
		pp.ErrorRate = errRate
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		t, err := s.curveTable(
			fmt.Sprintf("Figure 8: coverage vs budget, error%% = %.0f%%", errRate*100),
			pp.Budget, []Approach{SmartB, Naive})
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes,
			"expected: smartcrawl-b loses only a few percent at error%=50 while naivecrawl collapses")
		out = append(out, t)
	}
	return out, nil
}

// Figure9 reproduces Figure 9: the Yelp-style real hidden database —
// non-conjunctive ranked interface, drifted local data, interface-built
// sample — reporting recall vs budget.
func Figure9(p Params) (*Table, error) {
	s, err := NewYelpSetup(p)
	if err != nil {
		return nil, err
	}
	budget := p.Budget
	approaches := []Approach{SmartB, Naive, Full}
	curves := make([][]int, len(approaches))
	for i, a := range approaches {
		res, err := s.Run(a, budget)
		if err != nil {
			return nil, err
		}
		curves[i] = s.CoverageCurve(res)
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 9: recall vs budget on the Yelp-style hidden DB (k=%d, non-conjunctive, sample cost %d queries)",
			s.DB.K(), s.Sample.QueriesSpent),
		Header: []string{"budget", string(SmartB), string(Naive), string(Full)},
	}
	denom := float64(s.MaxCoverable())
	for _, b := range checkpoints(budget, 10) {
		row := []interface{}{b}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.1f%%", 100*float64(CoverageAt(c, b))/denom))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected: smartcrawl-b reaches its recall plateau with roughly half the budget naivecrawl needs;",
		"fullcrawl performs poorly (|D| ≪ |H|). At budget ≈ |D| naivecrawl can close most of the gap —",
		"drifted records inflate QSel-Est's bias (§6.1), so late smartcrawl budget re-targets records the",
		"matcher cannot resolve. On the real Yelp the paper saw naivecrawl plateau below smartcrawl outright.")
	return t, nil
}

// BoundGuarantee exercises §4.1 / Lemma 2: with |ΔD| > 0, QSel-Bound's
// coverage must stay above (1 − |ΔD|/b)·N_ideal, and QSel-Simple tends to
// beat QSel-Bound in practice (wasted re-selections). The lemma is proved
// under Assumption 2 (no top-k constraint) — its ΔD prediction
// q(D) − q(D)_cover is only sound when results are never truncated — so
// the experiment lifts k to |H|.
func BoundGuarantee(p Params) (*Table, error) {
	pp := p
	if pp.DeltaD == 0 {
		pp.DeltaD = p.LocalSize / 20
	}
	pp.K = pp.HiddenSize // Assumption 2: no effective top-k
	s, err := NewDBLPSetup(pp)
	if err != nil {
		return nil, err
	}
	// With no top-k, broad mined queries cover nearly all of D in a
	// handful of selections and the bound holds trivially; restricting
	// the pool to the per-record specific queries (MinSupport beyond
	// |D|) exposes the regime the lemma is about — budgets comparable to
	// |ΔD|, one covered record per query, wasted selections on ΔD.
	specificOnly := querypool.Config{MinSupport: pp.LocalSize + 1}
	t := &Table{
		Title:  fmt.Sprintf("Lemma 2: QSel-Bound guarantee (|ΔD|=%d, k=∞ per Assumption 2)", pp.DeltaD),
		Header: []string{"budget", "N_ideal", "N_bound", "lower bound", "holds", "N_simple", "bound reselections"},
	}
	// The guarantee is interesting when b is comparable to |ΔD| (its
	// slack factor is 1 − |ΔD|/b).
	budgets := []int{pp.DeltaD, 2 * pp.DeltaD, 4 * pp.DeltaD, 8 * pp.DeltaD}
	for _, b := range budgets {
		ideal, err := crawler.NewIdeal(s.Env(), s.DB, specificOnly)
		if err != nil {
			return nil, err
		}
		resI, err := ideal.Run(b)
		if err != nil {
			return nil, err
		}
		boundCrawler, err := crawler.NewBound(s.Env(), specificOnly)
		if err != nil {
			return nil, err
		}
		resB, err := boundCrawler.Run(b)
		if err != nil {
			return nil, err
		}
		simple, err := crawler.NewSmart(s.Env(), crawler.SmartConfig{PoolConfig: specificOnly})
		if err != nil {
			return nil, err
		}
		resS, err := simple.Run(b)
		if err != nil {
			return nil, err
		}
		nI := s.TruthCoverage(resI)
		nB := s.TruthCoverage(resB)
		nS := s.TruthCoverage(resS)
		lower := (1 - float64(pp.DeltaD)/float64(b)) * float64(nI)
		if lower < 0 {
			lower = 0
		}
		t.AddRow(b, nI, nB, lower, float64(nB) >= lower,
			nS, boundCrawler.Reselections)
	}
	t.Notes = append(t.Notes, "holds must be true on every row; N_simple usually ≥ N_bound (§4.1)")
	return t, nil
}

// EstimatorAccuracy quantifies Table 1's estimators against oracle
// benefits across sampling ratios: mean absolute error and mean signed
// error (bias), split by true query type.
func EstimatorAccuracy(p Params) (*Table, error) {
	t := &Table{
		Title: "Estimator accuracy vs oracle benefit (before any query is issued)",
		Header: []string{"theta", "type", "queries",
			"biased MAE", "biased bias", "unbiased MAE", "unbiased bias", "freq MAE"},
	}
	for _, theta := range []float64{0.001, 0.005, 0.02} {
		pp := p
		pp.Theta = theta
		s, err := NewDBLPSetup(pp)
		if err != nil {
			return nil, err
		}
		pool := querypool.Generate(s.Instance.Local, s.Tok, querypool.Config{})
		invD := index.BuildInvertedIDs(s.Instance.Local.Records, s.Tok, pool.Dict, 1)
		invS := index.BuildInvertedIDs(reID(s.Sample.Records), s.Tok, pool.Dict, 1)
		joiner := match.NewJoiner(s.Instance.Local.Records, s.Tok, s.Matcher)
		alpha := theta * float64(s.Instance.Local.Len()) / float64(maxInt(s.Sample.Len(), 1))

		type agg struct {
			n                                    int
			biasedAbs, biasedSigned              float64
			unbiasedAbs, unbiasedSigned, freqAbs float64
		}
		sums := map[string]*agg{"solid": {}, "overflow": {}}

		for _, q := range pool.Queries {
			qD := invD.Lookup(q.IDs)
			if len(qD) == 0 {
				continue
			}
			freqS := invS.Count(q.IDs)
			matchS := 0
			for _, pos := range invS.Lookup(q.IDs) {
				for _, d := range joiner.Matches(s.Sample.Records[pos]) {
					if _, ok := slices.BinarySearch(qD, uint32(d)); ok {
						matchS++
					}
				}
			}
			st := estimator.Stats{
				FreqD: len(qD), FreqSample: freqS, MatchSample: matchS,
				Theta: theta, K: s.DB.K(), Alpha: alpha,
			}
			recs, err := s.DB.Search(q.Keywords)
			if err != nil {
				return nil, err
			}
			trueBenefit := float64(len(joiner.CoveredBy(recs)))
			kind := "solid"
			if s.DB.IsOverflowing(q.Keywords) {
				kind = "overflow"
			}
			a := sums[kind]
			a.n++
			be := (estimator.Biased{}).Benefit(st) - trueBenefit
			ue := (estimator.Unbiased{}).Benefit(st) - trueBenefit
			fe := (estimator.Frequency{}).Benefit(st) - trueBenefit
			a.biasedAbs += abs(be)
			a.biasedSigned += be
			a.unbiasedAbs += abs(ue)
			a.unbiasedSigned += ue
			a.freqAbs += abs(fe)
		}
		for _, kind := range []string{"solid", "overflow"} {
			a := sums[kind]
			if a.n == 0 {
				continue
			}
			n := float64(a.n)
			t.AddRow(fmt.Sprintf("%.1f%%", theta*100), kind, a.n,
				a.biasedAbs/n, a.biasedSigned/n,
				a.unbiasedAbs/n, a.unbiasedSigned/n, a.freqAbs/n)
		}
	}
	t.Notes = append(t.Notes,
		"expected: biased MAE ≪ unbiased MAE at small θ; frequency MAE worst on overflowing queries")
	return t, nil
}

// AblateAlpha measures the §6.2 inadequate-sample fallback: coverage with
// and without α at a tiny sampling ratio.
func AblateAlpha(p Params) (*Table, error) {
	pp := p
	pp.Theta = 0.0005
	s, err := NewDBLPSetup(pp)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: α fallback (§6.2) at θ=%.2f%%", pp.Theta*100),
		Header: []string{"variant", "coverage", "queries"},
	}
	for _, on := range []bool{true, false} {
		c, err := crawler.NewSmart(s.Env(), crawler.SmartConfig{
			Sample: s.Sample, Estimator: estimator.Biased{}, AlphaFallback: on,
		})
		if err != nil {
			return nil, err
		}
		res, err := c.Run(pp.Budget)
		if err != nil {
			return nil, err
		}
		name := "with alpha"
		if !on {
			name = "without alpha"
		}
		t.AddRow(name, s.TruthCoverage(res), res.QueriesIssued)
	}
	t.Notes = append(t.Notes,
		"the fallback substitutes kα for unknown-frequency overflow benefits; it helps when D's keyword",
		"selectivities track H's and can mildly hurt when D is topically skewed relative to H (as here)")
	return t, nil
}

// AblateDeltaDRemoval measures the §4.2 removal optimization under a large
// ΔD.
func AblateDeltaDRemoval(p Params) (*Table, error) {
	pp := p
	if pp.DeltaD == 0 {
		pp.DeltaD = p.LocalSize / 5
	}
	s, err := NewDBLPSetup(pp)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: §4.2 ΔD removal (|ΔD|=%d)", pp.DeltaD),
		Header: []string{"variant", "coverage", "queries"},
	}
	for _, disable := range []bool{false, true} {
		c, err := crawler.NewSmart(s.Env(), crawler.SmartConfig{
			Sample: s.Sample, Estimator: estimator.Biased{},
			AlphaFallback: true, DisableDeltaDRemoval: disable,
		})
		if err != nil {
			return nil, err
		}
		res, err := c.Run(pp.Budget)
		if err != nil {
			return nil, err
		}
		name := "with ΔD removal"
		if disable {
			name = "without ΔD removal"
		}
		t.AddRow(name, s.TruthCoverage(res), res.QueriesIssued)
	}
	return t, nil
}

// AblateHeap measures the §6.3 on-demand-update machinery: SMARTCRAWL
// selection cost with the lazy queue versus an eager full-rescan argmax of
// the same pool, plus the repush factor t of Appendix B. The budget is
// raised to |D| so selection cost (the thing being measured) dominates the
// constant pipeline setup.
func AblateHeap(p Params) (*Table, error) {
	p.Budget = p.LocalSize
	s, err := NewDBLPSetup(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: lazy priority queue (§6.3) vs eager rescan",
		Header: []string{"variant", "coverage", "per-iteration selection", "pool size", "heap repushes"},
	}

	var lazyCoverage, eagerCoverage int
	for _, eager := range []bool{false, true} {
		mk := func() (*crawler.Smart, error) {
			return crawler.NewSmart(s.Env(), crawler.SmartConfig{
				Sample: s.Sample, Estimator: estimator.Biased{},
				AlphaFallback: true, EagerSelection: eager,
			})
		}
		// Setup (pool generation, indexes, sample statistics) dominates
		// short runs and is identical for both variants; approximate it
		// with a budget-1 run and report the marginal per-iteration
		// selection cost, which is what §6.3 optimizes.
		warm, err := mk()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := warm.Run(1); err != nil {
			return nil, err
		}
		setup := time.Since(start)

		c, err := mk()
		if err != nil {
			return nil, err
		}
		start = time.Now()
		res, err := c.Run(p.Budget)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		perIter := time.Duration(0)
		if res.QueriesIssued > 1 {
			d := elapsed - setup
			if d < 0 {
				d = 0
			}
			perIter = d / time.Duration(res.QueriesIssued-1)
		}
		cov := s.TruthCoverage(res)
		if eager {
			eagerCoverage = cov
			t.AddRow("eager rescan (per-iteration argmax)", cov, perIter.String(), c.PoolSize, "n/a")
		} else {
			lazyCoverage = cov
			t.AddRow("lazy (Algorithm 4)", cov, perIter.String(), c.PoolSize, c.HeapRepushes)
		}
	}
	if lazyCoverage != eagerCoverage {
		return nil, fmt.Errorf("experiment: lazy (%d) and eager (%d) selection diverged — they must be equivalent",
			lazyCoverage, eagerCoverage)
	}
	t.Notes = append(t.Notes,
		"wall time is the marginal per-iteration selection cost (setup subtracted);",
		"both rows must cover identically (same selection); the lazy queue wins by |Q|/log|Q| per iteration at scale")
	return t, nil
}

// OmegaSensitivity tabulates the analytic cost of the ω = 1 assumption of
// §5.3: the relative error of the central-hypergeometric benefit estimate
// when the true draw odds ratio is ω.
func OmegaSensitivity() *Table {
	t := &Table{
		Title:  "Analysis: sensitivity to the ω=1 assumption (§5.3)",
		Header: []string{"omega", "E[benefit] (Fisher)", "assumed (central)", "relative error"},
	}
	const (
		N = 1000 // |q(H)|
		K = 100  // k
		n = 200  // |q(D) ∩ q(H)|
	)
	central := stats.FisherNoncentralMean(N, K, n, 1)
	for _, omega := range []float64{0.5, 1, 2, 4, 8} {
		truth := stats.FisherNoncentralMean(N, K, n, omega)
		relErr := 0.0
		if truth > 0 {
			relErr = (central - truth) / truth
		}
		t.AddRow(omega, truth, central, fmt.Sprintf("%+.1f%%", 100*relErr))
	}
	t.Notes = append(t.Notes,
		"ω > 1 (top-k records likelier to match D) makes the central assumption underestimate benefits")
	return t
}

// --- small helpers ---

func reID(recs []*relational.Record) []*relational.Record {
	out := make([]*relational.Record, len(recs))
	for i, r := range recs {
		out[i] = &relational.Record{ID: i, Values: r.Values}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
