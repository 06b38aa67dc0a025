package stats

import "math"

// Hypergeometric is the distribution of the number of "black balls" drawn
// when sampling n balls without replacement from a population of N balls of
// which K are black. Section 5.3 of the paper models the overlap between a
// query's local matches and its top-k result exactly this way: the list
// q(H) has N = |q(H)| balls, the top-k records are the K = k black balls,
// and the n = |q(D) ∩ q(H)| local matches are the draws.
type Hypergeometric struct {
	N int // population size
	K int // number of black balls (successes) in the population
	n int // number of draws
}

// NewHypergeometric constructs the distribution. It panics if the
// parameters are inconsistent (K > N or n > N or any negative).
func NewHypergeometric(N, K, n int) Hypergeometric {
	if N < 0 || K < 0 || n < 0 || K > N || n > N {
		panic("stats: invalid hypergeometric parameters")
	}
	return Hypergeometric{N: N, K: K, n: n}
}

// Mean returns E[X] = n·K/N — Equation 6 of the paper, the expected number
// of covered records that survive the top-k cut.
func (h Hypergeometric) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.n) * float64(h.K) / float64(h.N)
}

// PMF returns P(X = i) = C(K,i)·C(N−K,n−i)/C(N,n), computed in log space
// to avoid overflow for large populations.
func (h Hypergeometric) PMF(i int) float64 {
	if i < 0 || i > h.n || i > h.K || h.n-i > h.N-h.K {
		return 0
	}
	lp := logChoose(h.K, i) + logChoose(h.N-h.K, h.n-i) - logChoose(h.N, h.n)
	return math.Exp(lp)
}

// CDF returns P(X ≤ i).
func (h Hypergeometric) CDF(i int) float64 {
	if i < 0 {
		return 0
	}
	sum := 0.0
	for j := 0; j <= i && j <= h.n; j++ {
		sum += h.PMF(j)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Sample draws one variate by sequential ball-by-ball simulation; O(n) per
// draw, exact.
func (h Hypergeometric) Sample(rng *RNG) int {
	black, total, drawn := h.K, h.N, 0
	for d := 0; d < h.n; d++ {
		if total == 0 {
			break
		}
		if rng.Float64() < float64(black)/float64(total) {
			drawn++
			black--
		}
		total--
	}
	return drawn
}

// FisherNoncentralMean approximates the mean of Fisher's noncentral
// hypergeometric distribution with odds ratio ω: the draw probability of
// each black ball is ω times that of each white ball. The paper (§5.3)
// notes that when the top-k records are more likely to match the local
// table than the tail (ω > 1), benefits follow this distribution; it then
// assumes ω = 1 because users cannot supply ω. We implement the mean so the
// ω-sensitivity ablation can quantify what that assumption costs.
//
// The approximation solves the standard fixed-point equation
// μ/(K−μ) · (n−μ)/(N−K−n+μ) = ω for μ by bisection; it is exact in the
// central case ω = 1 and accurate to the solver tolerance otherwise.
func FisherNoncentralMean(N, K, n int, omega float64) float64 {
	if N <= 0 || n == 0 || K == 0 {
		return 0
	}
	if omega <= 0 {
		panic("stats: odds ratio must be positive")
	}
	// Feasible support for the mean.
	lo := math.Max(0, float64(n+K-N))
	hi := math.Min(float64(n), float64(K))
	if hi-lo < 1e-12 {
		return lo
	}
	// f(μ) is monotonically increasing in μ on (lo, hi); find f(μ) = ω.
	f := func(mu float64) float64 {
		return (mu / (float64(K) - mu)) *
			((float64(N-K-n) + mu) / (float64(n) - mu))
	}
	a, b := lo+1e-12, hi-1e-12
	if f(a) >= omega {
		return lo
	}
	if f(b) <= omega {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := (a + b) / 2
		if f(mid) < omega {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2
}

// logChoose returns log C(n, k) using log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}
