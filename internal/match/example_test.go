package match_test

import (
	"fmt"

	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// ExampleJoiner shows the per-iteration similarity join: the local table is
// indexed once, then each hidden record from a query result is probed for
// the local records it covers.
func ExampleJoiner() {
	tk := tokenize.New()
	locals := []*relational.Record{
		{ID: 0, Values: []string{"Thai Noodle House"}},
		{ID: 1, Values: []string{"Steak House"}},
		{ID: 2, Values: []string{"Saigon Ramen"}},
	}
	j := match.NewJoiner(locals, tk, match.NewJaccard(tk, 0.6))

	probe := &relational.Record{ID: 100, Values: []string{"Thai Noodle House Grand"}}
	fmt.Println(j.Matches(probe))

	batch := []*relational.Record{
		probe,
		{ID: 101, Values: []string{"Steak House"}},
	}
	fmt.Println(j.CoveredBy(batch))
	// Output:
	// [0]
	// [0 1]
}

// ExampleBlockedAnd composes attribute-wise matchers into an ER rule: a
// fuzzy name block the Joiner can index, verified by an exact city check.
func ExampleBlockedAnd() {
	tk := tokenize.New()
	rule := match.NewBlockedAnd(
		match.NewJaccardOn(tk, 0.5, []int{0}, []int{0}), // fuzzy name
		match.NewExactOn(tk, []int{1}, []int{1}),        // exact city
	)
	d := &relational.Record{ID: 0, Values: []string{"Thai Noodle House", "Phoenix"}}
	h := &relational.Record{ID: 1, Values: []string{"Thai Noodle House Grand", "Phoenix"}}
	fmt.Println(rule.Match(d, h))
	// Output:
	// true
}
