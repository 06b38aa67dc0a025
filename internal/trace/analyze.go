package trace

import (
	"math"
	"sort"
	"strings"

	"smartcrawl/internal/obs"
)

// Summary condenses one trace into the numbers an operator asks first:
// how much was crawled, how much it covered, how degraded the session
// was, and how well the estimator predicted benefit.
type Summary struct {
	Events       int            // total parsed events
	ByType       map[string]int // event counts per type tag
	Queries      int            // issued queries
	Solid        int            // queries with |result| < k
	Covered      int            // final cumulative coverage
	Rounds       int            // selection rounds
	FinalBudget  int            // budget_left of the last round (-1 = unlimited, 0 rounds ⇒ 0)
	HasBudget    bool           // a round event was seen
	Ifaces       []string       // interface names on tagged events, sorted
	Retries      int
	RateLimited  int
	Faults       int
	FaultClasses map[string]int
	Requeues     int
	Forfeits     int
	BreakerOpens int // transitions into open
	Checkpoints  int
	Recoveries   int
	WalAppends   int
	EstSum       float64 // sum of estimated benefits over queries
	RealSum      float64 // sum of realized new coverage over queries
	AbsErrSum    float64 // sum of |est − realized|
	WallMs       int64   // t_ms span from first to last event
	PhaseMs      map[string]int64
	Unknown      int // events whose type is not in KnownTypes
}

// MAE returns the mean absolute estimate error per query, or 0 with no
// queries.
func (s *Summary) MAE() float64 {
	if s.Queries == 0 {
		return 0
	}
	return s.AbsErrSum / float64(s.Queries)
}

// Summarize computes a Summary in one pass.
func Summarize(events []Event) Summary {
	s := Summary{
		ByType:       map[string]int{},
		FaultClasses: map[string]int{},
		PhaseMs:      map[string]int64{},
	}
	ifaces := map[string]bool{}
	for i := range events {
		e := &events[i]
		s.Events++
		s.ByType[e.Type]++
		if e.Unknown() {
			s.Unknown++
			continue
		}
		switch e.Type {
		case obs.EventQuery:
			s.Queries++
			if e.Solid {
				s.Solid++
			}
			if e.CumCovered > s.Covered {
				s.Covered = e.CumCovered
			}
			s.EstSum += e.EstBenefit
			s.RealSum += float64(e.NewCovered)
			s.AbsErrSum += math.Abs(e.EstBenefit - float64(e.NewCovered))
		case obs.EventRound:
			s.Rounds++
			s.FinalBudget = e.BudgetLeft
			s.HasBudget = true
		case obs.EventRetry:
			s.Retries++
		case obs.EventRateLimit:
			s.RateLimited++
		case obs.EventFault:
			s.Faults++
			s.FaultClasses[e.Class]++
		case obs.EventRequeue:
			s.Requeues++
		case obs.EventForfeit:
			s.Forfeits++
		case obs.EventBreaker:
			if e.To == "open" {
				s.BreakerOpens++
			}
		case obs.EventCheckpoint:
			s.Checkpoints++
		case obs.EventRecovered:
			s.Recoveries++
		case obs.EventWalAppend:
			s.WalAppends++
		case obs.EventPhase:
			s.PhaseMs[e.Phase] += e.DurMs
		}
		if e.Iface != "" {
			ifaces[e.Iface] = true
		}
	}
	for name := range ifaces {
		s.Ifaces = append(s.Ifaces, name)
	}
	sort.Strings(s.Ifaces)
	if len(events) > 0 {
		s.WallMs = events[len(events)-1].TMs - events[0].TMs
	}
	return s
}

// RoundStat is one selection round reconstructed from the trace: the
// round marker plus every event up to (not including) the next marker.
// Round 0 collects pre-crawl events (phases, recovery) when the trace
// starts before the first marker.
type RoundStat struct {
	Index      int // 1-based; 0 = events before the first round marker
	Size       int // dispatch size of the round marker (0 for round 0)
	BudgetLeft int // budget before the round (-1 unlimited, 0 for round 0)
	Queries    int // queries absorbed in the round
	NewCovered int // coverage gained in the round
	CumEnd     int // cumulative coverage at round end
	Solid      int
	Faults     int
	Requeues   int
	Forfeits   int
	Events     []*Event // every event of the round, in seq order
}

// Rounds groups a trace by its round markers.
func Rounds(events []Event) []RoundStat {
	rounds := []RoundStat{{Index: 0}}
	cur := &rounds[0]
	cum := 0
	for i := range events {
		e := &events[i]
		if e.Type == obs.EventRound {
			rounds = append(rounds, RoundStat{
				Index: len(rounds), Size: e.Size, BudgetLeft: e.BudgetLeft, CumEnd: cum,
			})
			cur = &rounds[len(rounds)-1]
			cur.Events = append(cur.Events, e)
			continue
		}
		cur.Events = append(cur.Events, e)
		switch e.Type {
		case obs.EventQuery:
			cur.Queries++
			cur.NewCovered += e.NewCovered
			if e.CumCovered > cum {
				cum = e.CumCovered
			}
			cur.CumEnd = cum
			if e.Solid {
				cur.Solid++
			}
		case obs.EventFault:
			cur.Faults++
		case obs.EventRequeue:
			cur.Requeues++
		case obs.EventForfeit:
			cur.Forfeits++
		}
	}
	// Drop an empty round 0 (traces that start directly at a marker).
	if len(rounds) > 1 && len(rounds[0].Events) == 0 {
		rounds = rounds[1:]
	}
	return rounds
}

// Filter selects events. Zero-valued fields match everything.
type Filter struct {
	Types    []string // event type tags; empty = all
	Iface    string   // events tagged with this interface only (query, alloc, health)
	RoundMin int      // 1-based round range; 0 = open end
	RoundMax int
	QuerySub string // substring of the event's query text
}

// Apply returns the matching events in order. Round membership counts
// the round marker itself as part of its round; events before the first
// marker are round 0.
func (f Filter) Apply(events []Event) []Event {
	types := map[string]bool{}
	for _, t := range f.Types {
		types[t] = true
	}
	var out []Event
	round := 0
	for i := range events {
		e := &events[i]
		if e.Type == obs.EventRound {
			round++
		}
		if len(types) > 0 && !types[e.Type] {
			continue
		}
		if f.RoundMin > 0 && round < f.RoundMin {
			continue
		}
		if f.RoundMax > 0 && round > f.RoundMax {
			continue
		}
		if f.Iface != "" && e.Iface != f.Iface {
			continue
		}
		if f.QuerySub != "" && !strings.Contains(e.Query, f.QuerySub) {
			continue
		}
		out = append(out, *e)
	}
	return out
}

// TopBy selects the ranking criterion of Top.
type TopBy int

const (
	// ByRealized ranks queries by realized benefit (new records covered).
	ByRealized TopBy = iota
	// ByEstimateError ranks by |estimated − realized| benefit.
	ByEstimateError
)

// TopQuery is one ranked query.
type TopQuery struct {
	Seq      uint64
	Query    string
	Iface    string
	Est      float64
	Realized int
	AbsErr   float64
	Solid    bool
}

// Top ranks the trace's queries. Ties break by seq (earlier first) so
// the ranking is deterministic.
func Top(events []Event, by TopBy, n int) []TopQuery {
	var qs []TopQuery
	for i := range events {
		if e := &events[i]; e.Type == obs.EventQuery {
			qs = append(qs, TopQuery{
				Seq: e.Seq, Query: e.Query, Iface: e.Iface,
				Est: e.EstBenefit, Realized: e.NewCovered,
				AbsErr: math.Abs(e.EstBenefit - float64(e.NewCovered)),
				Solid:  e.Solid,
			})
		}
	}
	sort.SliceStable(qs, func(i, j int) bool {
		switch by {
		case ByEstimateError:
			if qs[i].AbsErr != qs[j].AbsErr {
				return qs[i].AbsErr > qs[j].AbsErr
			}
		default:
			if qs[i].Realized != qs[j].Realized {
				return qs[i].Realized > qs[j].Realized
			}
		}
		return qs[i].Seq < qs[j].Seq
	})
	if n > 0 && len(qs) > n {
		qs = qs[:n]
	}
	return qs
}

// RoundDelta is one round's coverage in each of two traces.
type RoundDelta struct {
	Round int
	CumA  int
	CumB  int
}

// DiffResult is the divergence report of two traces of the same
// (seeded) crawl — e.g. a clean run versus a fault-injected one.
type DiffResult struct {
	// FirstDiverge is the index (not seq) of the first event whose
	// canonical form differs, comparing position by position; -1 when one
	// trace is a prefix of the other or they are identical.
	FirstDiverge int
	// CanonicalA/B are the differing canonical forms at FirstDiverge
	// ("<end of trace>" past the shorter trace's end).
	CanonicalA, CanonicalB string
	// EventsA/B are the trace lengths.
	EventsA, EventsB int
	// Rounds holds per-round end-of-round cumulative coverage for both
	// traces, covering max(rounds(A), rounds(B)) entries.
	Rounds []RoundDelta
	// FirstRoundDiverge is the first 1-based round whose end-of-round
	// coverage differs; 0 when coverage never diverges.
	FirstRoundDiverge int
	// CoveredA/B are the final coverages.
	CoveredA, CoveredB int
}

// Identical reports byte-identical canonical event streams.
func (d *DiffResult) Identical() bool {
	return d.FirstDiverge < 0 && d.EventsA == d.EventsB
}

// Diff compares two traces: the first canonically differing event and
// the per-round coverage divergence.
func Diff(a, b []Event) DiffResult {
	res := DiffResult{FirstDiverge: -1, EventsA: len(a), EventsB: len(b)}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		ca, cb := a[i].Canonical(), b[i].Canonical()
		if ca != cb {
			res.FirstDiverge = i
			res.CanonicalA, res.CanonicalB = ca, cb
			break
		}
	}
	if res.FirstDiverge < 0 && len(a) != len(b) {
		res.FirstDiverge = n
		res.CanonicalA, res.CanonicalB = "<end of trace>", "<end of trace>"
		if len(a) > n {
			res.CanonicalA = a[n].Canonical()
		}
		if len(b) > n {
			res.CanonicalB = b[n].Canonical()
		}
	}

	ra, rb := roundCoverage(a), roundCoverage(b)
	rounds := len(ra)
	if len(rb) > rounds {
		rounds = len(rb)
	}
	for i := 0; i < rounds; i++ {
		d := RoundDelta{Round: i + 1, CumA: atOr(ra, i), CumB: atOr(rb, i)}
		res.Rounds = append(res.Rounds, d)
		if res.FirstRoundDiverge == 0 && d.CumA != d.CumB {
			res.FirstRoundDiverge = d.Round
		}
	}
	res.CoveredA = Summarize(a).Covered
	res.CoveredB = Summarize(b).Covered
	return res
}

// roundCoverage returns end-of-round cumulative coverage per 1-based
// round (pre-round events excluded).
func roundCoverage(events []Event) []int {
	var out []int
	for _, r := range Rounds(events) {
		if r.Index == 0 {
			continue
		}
		out = append(out, r.CumEnd)
	}
	return out
}

func atOr(s []int, i int) int {
	if i < len(s) {
		return s[i]
	}
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}
