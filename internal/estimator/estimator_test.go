package estimator

import (
	"fmt"
	"math"
	"testing"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/fixture"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// statsFor computes Stats for query q in the running-example universe.
func statsFor(t *testing.T, u *fixtureUniverse, q deepweb.Query) Stats {
	t.Helper()
	qD := matching(u.localRecs, q, u.tk)
	qS := matching(u.sampleRecs, q, u.tk)
	freqD, freqS := len(qD), len(qS)
	matchS := 0
	for _, h := range qS {
		for _, d := range qD {
			if u.matcher.Match(d, h) {
				matchS++
			}
		}
	}
	return Stats{
		FreqD:       freqD,
		FreqSample:  freqS,
		MatchSample: matchS,
		Theta:       u.theta,
		K:           u.k,
	}
}

type fixtureUniverse struct {
	tk                    *tokenize.Tokenizer
	localRecs, sampleRecs []*relational.Record
	matcher               match.Matcher
	theta                 float64
	k                     int
}

func newFixtureUniverse() *fixtureUniverse {
	u := fixture.New()
	return &fixtureUniverse{
		tk:         u.Tokenizer,
		localRecs:  u.Local.Records,
		sampleRecs: u.Sample.Records,
		// Hidden records carry the extra rating attribute, so match
		// on the name column only.
		matcher: match.NewExactOn(u.Tokenizer, nil, []int{0}),
		theta:   u.Theta,
		k:       u.K,
	}
}

func TestRunningExampleBenefits(t *testing.T) {
	fu := newFixtureUniverse()
	b, ub := Biased{}, Unbiased{}

	cases := []struct {
		q            deepweb.Query
		wantOverflow bool
		wantBiased   float64
		wantUnbiased float64
	}{
		// q1 = d1's name: not in sample → solid; biased = |q(D)| = 2
		// (d1 and d4 both contain thai/noodle/house).
		{deepweb.Query{"house", "noodle", "thai"}, false, 2, 0},
		// "thai house": |q(Hs)| = 1, 1/(1/3) = 3 > 2 → overflow.
		// |q(D)| = 3 (d1, d3, d4) → biased = 3·(2/3)/1 = 2.
		// Unbiased = |q(D) ∩̃ q(Hs)|·k/|q(Hs)| = 1·2/1 = 2 (Example 4's
		// form: h3 matches d3).
		{deepweb.Query{"house", "thai"}, true, 2, 2},
		// "house": |q(Hs)| = 2 ("Thai House", "Steak House") → 6 > 2
		// overflow. |q(D)| = 3 → biased = 3·(2/3)/2 = 1 (the paper's
		// Table 2 value for q5). Only h3~d3 matches → unbiased = 1·2/2 = 1.
		{deepweb.Query{"house"}, true, 1, 1},
		// "thai": |q(Hs)| = 1 → 3 > 2 overflow; |q(D)| = 3 →
		// biased = 3·(2/3)/1 = 2 (the paper's q6 estimate).
		{deepweb.Query{"thai"}, true, 2, 2},
		// "saigon ramen" = d2's name: not in sample → solid, biased = 1.
		{deepweb.Query{"ramen", "saigon"}, false, 1, 0},
	}
	for _, c := range cases {
		s := statsFor(t, fu, c.q)
		if got := PredictOverflow(s); got != c.wantOverflow {
			t.Errorf("PredictOverflow(%v) = %v, want %v (stats %+v)",
				c.q, got, c.wantOverflow, s)
		}
		if got := b.Benefit(s); math.Abs(got-c.wantBiased) > 1e-9 {
			t.Errorf("Biased(%v) = %v, want %v", c.q, got, c.wantBiased)
		}
		if got := ub.Benefit(s); math.Abs(got-c.wantUnbiased) > 1e-9 {
			t.Errorf("Unbiased(%v) = %v, want %v", c.q, got, c.wantUnbiased)
		}
	}
}

func TestFrequencyEstimator(t *testing.T) {
	f := Frequency{}
	if f.Name() != "frequency" {
		t.Fatal("name")
	}
	if got := f.Benefit(Stats{FreqD: 42, FreqSample: 100, Theta: 0.01, K: 5}); got != 42 {
		t.Fatalf("Frequency.Benefit = %v", got)
	}
}

func TestAlphaFallbackOverflowPrediction(t *testing.T) {
	// |q(Hs)| = 0 normally predicts solid; with α set and |q(D)|/α > k it
	// must flip to overflow, with biased benefit kα (§6.2).
	s := Stats{FreqD: 500, FreqSample: 0, Theta: 0.005, K: 100, Alpha: 0.1}
	// 500/0.1 = 5000 > 100 → overflow.
	if !PredictOverflow(s) {
		t.Fatal("alpha fallback should predict overflow")
	}
	if got := (Biased{}).Benefit(s); math.Abs(got-100*0.1) > 1e-12 {
		t.Fatalf("biased fallback benefit = %v, want kα = 10", got)
	}
	// Without alpha, prediction stays solid and benefit is |q(D)|.
	s.Alpha = 0
	if PredictOverflow(s) {
		t.Fatal("without alpha, zero sample frequency predicts solid")
	}
	if got := (Biased{}).Benefit(s); got != 500 {
		t.Fatalf("benefit = %v", got)
	}
}

func TestUnbiasedAlphaFallbackCapsAtK(t *testing.T) {
	s := Stats{FreqD: 500, FreqSample: 0, MatchSample: 3, Theta: 0.005, K: 100, Alpha: 0.1}
	// 3/0.005 = 600 > k → capped at k.
	if got := (Unbiased{}).Benefit(s); got != 100 {
		t.Fatalf("unbiased fallback = %v, want 100", got)
	}
}

func TestNames(t *testing.T) {
	if (Biased{}).Name() != "biased" || (Unbiased{}).Name() != "unbiased" {
		t.Fatal("estimator names")
	}
}

func TestTrueBenefitBias(t *testing.T) {
	if got := TrueBenefitBias(5, 100, 1000); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("bias = %v", got)
	}
	if got := TrueBenefitBias(5, 100, 0); got != 0 {
		t.Fatalf("bias with |q(H)|=0 = %v", got)
	}
}

// TestLemma3SolidUnbiasedness statistically validates Lemma 3 through
// Unbiased.Benefit: for a solid query, E over sample draws of the
// estimate |q(D) ∩ q(Hs)|/θ equals |q(D) ∩ q(H)|.
func TestLemma3SolidUnbiasedness(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(101)

	// Hidden database: 5000 records; 600 contain the query keyword pair.
	hid := relational.NewTable("h", []string{"doc"})
	for i := 0; i < 5000; i++ {
		if i < 600 {
			hid.Append(fmt.Sprintf("alpha beta filler%d", i))
		} else {
			hid.Append(fmt.Sprintf("gamma filler%d", i))
		}
	}
	// Local database: 300 of the 600 matching hidden records (exact
	// copies), so |q(D) ∩ q(H)| = 300.
	local := relational.NewTable("d", []string{"doc"})
	for i := 0; i < 300; i++ {
		local.Append(hid.Records[i].Value(0))
	}
	q := deepweb.Query{"alpha", "beta"}
	matcher := match.NewExact(tk)

	const (
		theta  = 0.02
		trials = 400
		// k well above |q(H)| = 600 makes q solid, and above every
		// plausible |q(Hs)|/θ so the estimator predicts it solid too.
		k = 2000
	)
	qD := matching(local.Records, q, tk)
	joiner := match.NewJoiner(qD, tk, matcher)
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		smp := sample.Bernoulli(hid, theta, rng.Split())
		s := Stats{FreqD: len(qD), Theta: theta, K: k}
		for _, r := range smp.Records {
			if satisfies(r, q, tk) {
				s.FreqSample++
				s.MatchSample += len(joiner.Matches(r))
			}
		}
		if PredictOverflow(s) {
			t.Fatalf("trial %d: solid query predicted to overflow (stats %+v)", trial, s)
		}
		sum += (Unbiased{}).Benefit(s)
	}
	mean := sum / trials
	if math.Abs(mean-300) > 15 { // ~5σ for this setup
		t.Fatalf("E[Unbiased.Benefit] = %v, want ≈300", mean)
	}
}

// matching returns the records whose token sets hold every keyword of q,
// in table order.
func matching(recs []*relational.Record, q deepweb.Query, tk *tokenize.Tokenizer) []*relational.Record {
	var out []*relational.Record
	for _, r := range recs {
		if satisfies(r, q, tk) {
			out = append(out, r)
		}
	}
	return out
}

func satisfies(r *relational.Record, q deepweb.Query, tk *tokenize.Tokenizer) bool {
	set := tk.Set(r.Document())
	for _, w := range q {
		if _, ok := set[w]; !ok {
			return false
		}
	}
	return true
}

// TestLemma5OverflowBiasedExpectation validates the Lemma 5 bias formula
// through Biased.Benefit: E[|q(D)|·kθ/|q(Hs)|] ≈ k·|q(D)|/|q(H)|
// (conditioning on |q(Hs)| > 0).
func TestLemma5OverflowBiasedExpectation(t *testing.T) {
	rng := stats.NewRNG(202)
	const (
		freqH  = 800 // |q(H)|
		freqD  = 120 // |q(D)|
		k      = 100
		theta  = 0.05
		trials = 2000
	)
	sum, n := 0.0, 0
	for trial := 0; trial < trials; trial++ {
		// |q(Hs)| ~ Binomial(freqH, theta)
		s := Stats{FreqD: freqD, Theta: theta, K: k}
		for i := 0; i < freqH; i++ {
			if rng.Float64() < theta {
				s.FreqSample++
			}
		}
		if s.FreqSample == 0 {
			continue
		}
		if !PredictOverflow(s) {
			t.Fatalf("trial %d: overflowing query predicted solid (stats %+v)", trial, s)
		}
		sum += (Biased{}).Benefit(s)
		n++
	}
	mean := sum / float64(n)
	want := float64(k) * float64(freqD) / float64(freqH) // = 15
	// Ratio estimators carry O(1/(θ·freqH)) relative bias; allow 5%.
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("E[Biased.Benefit] = %v, want ≈%v", mean, want)
	}
}

// TestLemma4OverflowUnbiasedExpectation validates the conditionally
// unbiased overflow estimator through Unbiased.Benefit: with q(D)∩q(H) a
// uniform subset of q(H), E[|q(D)∩q(Hs)|·k/|q(Hs)|] ≈ |q(D)∩q(H)|·k/|q(H)|
// — the expected true benefit under the hypergeometric model (Equation 7).
// On the same trials Biased.Benefit, which scales the fixed |q(D)| instead
// of the sampled match count, must have the lower variance.
func TestLemma4OverflowUnbiasedExpectation(t *testing.T) {
	rng := stats.NewRNG(303)
	const (
		freqH  = 600
		inD    = 150 // |q(D) ∩ q(H)|, and |q(D)|: no ΔD
		k      = 50
		theta  = 0.05
		trials = 3000
	)
	var unbiased, biased []float64
	for trial := 0; trial < trials; trial++ {
		// Choose which hidden matches are in D uniformly.
		perm := rng.Perm(freqH)
		isInD := make([]bool, freqH)
		for _, i := range perm[:inD] {
			isInD[i] = true
		}
		s := Stats{FreqD: inD, Theta: theta, K: k}
		for i := 0; i < freqH; i++ {
			if rng.Float64() < theta {
				s.FreqSample++
				if isInD[i] {
					s.MatchSample++
				}
			}
		}
		if s.FreqSample == 0 {
			continue
		}
		if !PredictOverflow(s) {
			t.Fatalf("trial %d: overflowing query predicted solid (stats %+v)", trial, s)
		}
		unbiased = append(unbiased, (Unbiased{}).Benefit(s))
		biased = append(biased, (Biased{}).Benefit(s))
	}
	mean, varU := meanVar(unbiased)
	want := float64(inD) * float64(k) / float64(freqH) // = 12.5
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("E[Unbiased.Benefit] = %v, want ≈%v", mean, want)
	}
	if _, varB := meanVar(biased); varB >= varU {
		t.Fatalf("Var[Biased.Benefit] = %v, not below Var[Unbiased.Benefit] = %v", varB, varU)
	}
}

// meanVar returns the mean and the population variance of xs.
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}

// Property: the biased estimator never exceeds |q(D)| — the hard upper
// bound on any query's true benefit. When overflow is predicted through
// the sample, kθ/|q(Hs)| < 1 by the prediction inequality; when predicted
// through the α fallback, kα < |q(D)| likewise.
func TestBiasedNeverExceedsFreqD(t *testing.T) {
	rng := stats.NewRNG(404)
	b := Biased{}
	for trial := 0; trial < 20000; trial++ {
		s := Stats{
			FreqD:       1 + rng.Intn(5000),
			FreqSample:  rng.Intn(50),
			MatchSample: rng.Intn(10),
			Theta:       0.0001 + rng.Float64()*0.05,
			K:           1 + rng.Intn(500),
		}
		if rng.Bool(0.5) {
			s.Alpha = 0.0001 + rng.Float64()*0.5
		}
		if got := b.Benefit(s); got > float64(s.FreqD)+1e-9 {
			t.Fatalf("biased benefit %v exceeds |q(D)| = %d (stats %+v)", got, s.FreqD, s)
		}
		if got := b.Benefit(s); got < 0 {
			t.Fatalf("negative benefit %v (stats %+v)", got, s)
		}
	}
}

// Property: the unbiased estimator is never negative and, for solid
// predictions, scales linearly with MatchSample.
func TestUnbiasedNonNegative(t *testing.T) {
	rng := stats.NewRNG(505)
	u := Unbiased{}
	for trial := 0; trial < 20000; trial++ {
		s := Stats{
			FreqD:       1 + rng.Intn(5000),
			FreqSample:  rng.Intn(50),
			MatchSample: rng.Intn(10),
			Theta:       0.0001 + rng.Float64()*0.05,
			K:           1 + rng.Intn(500),
			Alpha:       rng.Float64() * 0.5,
		}
		if got := u.Benefit(s); got < 0 {
			t.Fatalf("negative unbiased benefit %v (stats %+v)", got, s)
		}
	}
}
