package match

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func rec(id int, doc string) *relational.Record {
	return &relational.Record{ID: id, Values: []string{doc}}
}

func TestExactMatcher(t *testing.T) {
	tk := tokenize.New()
	m := NewExact(tk)
	cases := []struct {
		a, b string
		want bool
	}{
		{"Thai House", "thai house", true},
		{"Thai House", "House Thai", true}, // token-set equality
		{"Thai House", "Thai House!", true},
		{"Thai House", "Thai Houses", false},
		{"Thai House", "Thai", false},
		{"", "", true},
	}
	for _, c := range cases {
		if got := m.Match(rec(0, c.a), rec(1, c.b)); got != c.want {
			t.Errorf("Exact(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardSim(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b", "c", "d"}, []string{"a", "b", "c"}, 0.75},
	}
	for _, c := range cases {
		if got := JaccardSim(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardMatcherThreshold(t *testing.T) {
	tk := tokenize.New()
	m := NewJaccard(tk, 0.75)
	// 3 shared of 4 union = 0.75: match.
	if !m.Match(rec(0, "alpha beta gamma delta"), rec(1, "alpha beta gamma")) {
		t.Fatal("0.75 similarity should match at threshold 0.75")
	}
	// 2 shared of 4 union = 0.5: no match.
	if m.Match(rec(0, "alpha beta gamma delta"), rec(1, "alpha beta")) {
		t.Fatal("0.5 similarity should not match")
	}
}

func TestNewJaccardPanicsOnBadThreshold(t *testing.T) {
	for _, th := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("threshold %v should panic", th)
				}
			}()
			NewJaccard(tokenize.New(), th)
		}()
	}
}

func TestSimilarityFunctions(t *testing.T) {
	a := []string{"w", "x", "y"}
	b := []string{"x", "y", "z", "q"}
	// overlap = 2
	if got := DiceSim(a, b); math.Abs(got-4.0/7) > 1e-12 {
		t.Errorf("Dice = %v", got)
	}
	if got := OverlapSim(a, b); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Overlap = %v", got)
	}
	if got := CosineSim(a, b); math.Abs(got-2/math.Sqrt(12)) > 1e-12 {
		t.Errorf("Cosine = %v", got)
	}
}

func TestSimilarityBoundsAndSymmetry(t *testing.T) {
	rng := stats.NewRNG(5)
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	randSet := func() []string {
		n := rng.Intn(5)
		seen := map[string]bool{}
		var out []string
		for i := 0; i < n; i++ {
			w := vocab[rng.Intn(len(vocab))]
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
		return out
	}
	sims := []func(a, b []string) float64{JaccardSim, DiceSim, OverlapSim, CosineSim}
	for trial := 0; trial < 500; trial++ {
		a, b := randSet(), randSet()
		for i, f := range sims {
			ab, ba := f(a, b), f(b, a)
			if math.Abs(ab-ba) > 1e-12 {
				t.Fatalf("sim %d not symmetric on %v %v", i, a, b)
			}
			if ab < -1e-12 || ab > 1+1e-12 {
				t.Fatalf("sim %d out of [0,1]: %v", i, ab)
			}
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"rest", "restaurant", 6},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinTriangleProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 || len(b) > 30 {
			return true
		}
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			return false
		}
		la, lb := len([]rune(a)), len([]rune(b))
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinerExact(t *testing.T) {
	tk := tokenize.New()
	locals := []*relational.Record{
		rec(0, "Thai House"),
		rec(1, "Steak House"),
		rec(2, "thai HOUSE"), // duplicate key of 0
	}
	j := NewJoiner(locals, tk, NewExact(tk))
	if got := j.Matches(rec(100, "Thai House")); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Matches = %v", got)
	}
	if got := j.Matches(rec(100, "Pizza Place")); got != nil {
		t.Fatalf("Matches = %v, want nil", got)
	}
	covered := j.CoveredBy([]*relational.Record{
		rec(100, "Steak House"),
		rec(101, "Thai House"),
		rec(102, "Steak House"), // dup in batch
	})
	if !reflect.DeepEqual(covered, []int{0, 1, 2}) {
		t.Fatalf("CoveredBy = %v", covered)
	}
}

// TestJoinerJaccardMatchesBruteForce is the key property test: the
// prefix-filtered join must return exactly the records a full scan
// returns. It covers whole documents whose hidden side carries columns
// with tokens no local record has (the yelp shape), key-column
// projections with DCols ≠ HCols, empty projections on both sides, long
// prefixes (τ 0.1 and 0.3) as well as short ones, and CoveredBy.
func TestJoinerJaccardMatchesBruteForce(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(17)
	// words draws up to most tokens from tok00..tok<vocab-1>; a draw of
	// none, or of only the stop word "the", leaves a value with no tokens.
	words := func(most, vocab int) string {
		var b strings.Builder
		for n := rng.Intn(most + 1); n > 0; n-- {
			if rng.Intn(10) == 0 {
				b.WriteString("the ")
			} else {
				fmt.Fprintf(&b, "tok%02d ", rng.Intn(vocab))
			}
		}
		return b.String()
	}
	extra := func(prefix string) string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return fmt.Sprintf("%s%d", prefix, rng.Intn(6))
	}
	// Local records are (name, city) over tok00–tok29. Hidden records are
	// (name, category, city, rating): name and city also draw tok30–tok39,
	// and category and rating share no token with the local side.
	hidden := func(id int, name, city string) *relational.Record {
		return &relational.Record{ID: id, Values: []string{name, extra("cat"), city, extra("stars")}}
	}
	shapes := []struct {
		name string
		m    func(th float64) *Jaccard
	}{
		{"whole documents", func(th float64) *Jaccard { return NewJaccard(tk, th) }},
		{"name and city columns", func(th float64) *Jaccard {
			return NewJaccardOn(tk, th, []int{0, 1}, []int{0, 2})
		}},
	}
	for _, shape := range shapes {
		for _, threshold := range []float64{0.1, 0.3, 0.5, 0.75, 0.9, 1.0} {
			m := shape.m(threshold)
			locals := make([]*relational.Record, 150)
			locals[0] = &relational.Record{ID: 0, Values: []string{"", "the"}} // no tokens
			for i := 1; i < len(locals); i++ {
				locals[i] = &relational.Record{ID: i, Values: []string{words(4, 30), words(2, 30)}}
			}
			j := NewJoiner(locals, tk, m)
			for batch := 0; batch < 20; batch++ {
				probes := make([]*relational.Record, 5)
				for p := range probes {
					probes[p] = hidden(1000+p, words(4, 40), words(2, 40))
				}
				if batch == 0 {
					probes[0] = &relational.Record{ID: 999, Values: []string{"the", "", "", ""}} // no tokens
					probes[1] = hidden(998, locals[1].Values[0], locals[1].Values[1])
				}
				var covered []int
				for _, probe := range probes {
					var want []int
					for i, d := range locals {
						if m.Match(d, probe) {
							want = append(want, i)
						}
					}
					if got := j.Matches(probe); !slices.Equal(got, want) {
						t.Fatalf("%s, threshold %v, probe %v: got %v want %v",
							shape.name, threshold, probe, got, want)
					}
					covered = append(covered, want...)
				}
				slices.Sort(covered)
				covered = slices.Compact(covered)
				if got := j.CoveredBy(probes); !slices.Equal(got, covered) {
					t.Fatalf("%s, threshold %v: CoveredBy = %v, want %v",
						shape.name, threshold, got, covered)
				}
			}
		}
	}
}

// FuzzJaccardJoin checks Joiner.Matches and CoveredBy against a full scan
// of Jaccard.Match. Each line of locals and of probes is a record whose
// columns are split by tabs; the join runs over whole documents and over
// local column 0 against hidden column 1, at threshold (1 + pct%100)/100.
func FuzzJaccardJoin(f *testing.F) {
	f.Add("thai noodle house\tphoenix\nsteak house\ttempe\n\nthe", "thai noodle house grand\tthai noodle\nthe\t", uint8(49))
	f.Add("a b c\nb c d\nc d e f g\nx", "b c x y z\ta b\nd e", uint8(9))
	// At τ 0.07 the probe's 100 tokens need 7 shared with local record 0
	// (7/100 passes the float64 test), but 0.07·100 is 7.000000000000001,
	// so a prefix from ⌈τ·|h|⌉ = 8 stops one token short of c0, the first
	// token the probe shares with record 0 (record 1 raises the common
	// tokens' document frequency, so they sort after the rare ones).
	var rare strings.Builder
	for i := 0; i < 93; i++ {
		fmt.Fprintf(&rare, "r%02d ", i)
	}
	common := "c0 c1 c2 c3 c4 c5 c6"
	f.Add(common+"\n"+common+" extra\n"+rare.String(), rare.String()+common, uint8(6))
	f.Fuzz(func(t *testing.T, locals, probes string, pct uint8) {
		tk := tokenize.New()
		threshold := float64(1+pct%100) / 100
		records := func(s string) []*relational.Record {
			var out []*relational.Record
			for i, line := range strings.Split(s, "\n") {
				out = append(out, &relational.Record{ID: i, Values: strings.Split(line, "\t")})
			}
			return out
		}
		ds, hs := records(locals), records(probes)
		for _, m := range []*Jaccard{NewJaccard(tk, threshold), NewJaccardOn(tk, threshold, []int{0}, []int{1})} {
			j := NewJoiner(ds, tk, m)
			var covered []int
			for _, h := range hs {
				var want []int
				for i, d := range ds {
					if m.Match(d, h) {
						want = append(want, i)
					}
				}
				if got := j.Matches(h); !slices.Equal(got, want) {
					t.Fatalf("threshold %v, columns %v/%v, probe %q: got %v want %v",
						threshold, m.DCols, m.HCols, h.Values, got, want)
				}
				covered = append(covered, want...)
			}
			slices.Sort(covered)
			covered = slices.Compact(covered)
			if got := j.CoveredBy(hs); !slices.Equal(got, covered) {
				t.Fatalf("threshold %v, columns %v/%v: CoveredBy = %v, want %v",
					threshold, m.DCols, m.HCols, got, covered)
			}
		}
	})
}

type nameMatcher struct{}

func (nameMatcher) Match(d, h *relational.Record) bool {
	return d.Value(0) == h.Value(0)
}

func TestJoinerBlackBoxFallback(t *testing.T) {
	tk := tokenize.New()
	locals := []*relational.Record{rec(0, "A"), rec(1, "B"), rec(2, "A")}
	j := NewJoiner(locals, tk, nameMatcher{})
	if got := j.Matches(rec(9, "A")); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Matches = %v", got)
	}
}

// zipfJoinUniverse returns n local records of six Zipf-drawn words over a
// 3 000-word vocabulary, and 64 probes shaped like a crawl's hidden rows:
// each is a local record's text plus extra words no local record has, as
// a hidden row's category and rating columns are.
func zipfJoinUniverse(n, extra int) (locals, probes []*relational.Record) {
	rng := stats.NewRNG(3)
	zipf := stats.NewZipf(rng, 1.0, 3000)
	locals = make([]*relational.Record, n)
	for i := range locals {
		doc := ""
		for j := 0; j < 6; j++ {
			doc += fmt.Sprintf("w%d ", zipf.Draw())
		}
		locals[i] = rec(i, doc)
	}
	probes = make([]*relational.Record, 64)
	for i := range probes {
		doc := locals[rng.Intn(n)].Values[0]
		for e := 0; e < extra; e++ {
			doc += fmt.Sprintf("x%dy%d ", i, e)
		}
		probes[i] = rec(-1, doc)
	}
	return locals, probes
}

// BenchmarkJoinerJaccardProbe times one probe of a 10 000-record Jaccard
// join: a clone of a local record at τ 0.9 (short prefixes, no probe-only
// tokens), and at τ 0.5 a local record's text plus four probe-only words,
// the shape of the yelp-remote crawl's probes.
func BenchmarkJoinerJaccardProbe(b *testing.B) {
	tk := tokenize.New()
	locals, probes := zipfJoinUniverse(10000, 4)
	b.Run("clone/t=0.9", func(b *testing.B) {
		j := NewJoiner(locals, tk, NewJaccard(tk, 0.9))
		probe := locals[42].Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = j.Matches(probe)
		}
	})
	b.Run("extra-tokens/t=0.5", func(b *testing.B) {
		j := NewJoiner(locals, tk, NewJaccard(tk, 0.5))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = j.Matches(probes[i%len(probes)])
		}
	})
}

// benchSink keeps the benchmarked probes from being optimized away.
var benchSink []int
