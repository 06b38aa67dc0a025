package match

import (
	"reflect"
	"testing"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

func biz(id int, name, city string) *relational.Record {
	return &relational.Record{ID: id, Values: []string{name, city}}
}

func TestBlockedAndMatch(t *testing.T) {
	tk := tokenize.New()
	m := NewBlockedAnd(
		NewJaccardOn(tk, 0.5, []int{0}, []int{0}),
		NewExactOn(tk, []int{1}, []int{1}),
	)
	d := biz(0, "Thai Noodle House", "Phoenix")
	if !m.Match(d, biz(1, "Thai Noodle House Grand", "Phoenix")) {
		t.Error("blocked-and should match")
	}
	if m.Match(d, biz(2, "Thai Noodle House Grand", "Tempe")) {
		t.Error("verification should reject different city")
	}
}

// TestJoinerBlockedAnd checks the Joiner indexes the block and verifies
// candidates, agreeing with a brute-force scan.
func TestJoinerBlockedAnd(t *testing.T) {
	tk := tokenize.New()
	locals := []*relational.Record{
		biz(0, "Thai Noodle House", "Phoenix"),
		biz(1, "Thai Noodle Palace", "Phoenix"),
		biz(2, "Thai Noodle House", "Tempe"),
		biz(3, "Steak House", "Phoenix"),
	}
	m := NewBlockedAnd(
		NewJaccardOn(tk, 0.5, []int{0}, []int{0}),
		NewExactOn(tk, []int{1}, []int{1}),
	)
	j := NewJoiner(locals, tk, m)

	probes := []*relational.Record{
		biz(10, "Thai Noodle House Grand", "Phoenix"),
		biz(11, "Thai Noodle House", "Tempe"),
		biz(12, "Steak House", "Tucson"),
	}
	for _, probe := range probes {
		var want []int
		for i, d := range locals {
			if m.Match(d, probe) {
				want = append(want, i)
			}
		}
		got := j.Matches(probe)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("probe %v: got %v want %v", probe, got, want)
		}
	}
}
