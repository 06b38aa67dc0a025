package match

// Allocation-regression guard for the Jaccard probe. Each local record's
// token set is stored once as ascending ranks and a probe's ranks go into
// the Joiner's reused buffer, so a warm probe that verifies candidates but
// matches none allocates nothing; this test pins that. Wired into
// `make allocguard` (part of `make check`).

import (
	"testing"

	"smartcrawl/internal/tokenize"
)

func TestJaccardProbeAllocFree(t *testing.T) {
	if raceDetectorOn {
		t.Skip("race detector instruments allocations; guard only meaningful without -race")
	}
	if testing.Short() {
		t.Skip("builds a 10 000-record join")
	}
	tk := tokenize.New()
	// Seven probe-only words on a local record's six: the probe keeps all
	// its known tokens in its prefix, so it reaches that record (and any
	// sharing a prefix token) as a candidate, yet no Jaccard reaches 0.5.
	locals, probes := zipfJoinUniverse(10000, 7)
	j := NewJoiner(locals, tk, NewJaccard(tk, 0.5))
	probe := probes[0]
	if got := j.Matches(probe); len(got) != 0 {
		t.Fatalf("probe matches %v; the guard needs a probe that matches none", got)
	}
	avg := testing.AllocsPerRun(500, func() { j.Matches(probe) })
	if avg != 0 {
		t.Fatalf("warm Jaccard probe allocates %.2f allocs/op, want 0", avg)
	}
}
