package lazyheap

import (
	"sort"
	"testing"

	"smartcrawl/internal/stats"
)

func noRescore(t *testing.T) func(int) (float64, bool) {
	return func(id int) (float64, bool) {
		t.Fatalf("unexpected rescore of %d", id)
		return 0, false
	}
}

func TestPopOrder(t *testing.T) {
	q := New()
	q.Push(1, 3)
	q.Push(2, 7)
	q.Push(3, 5)
	want := []int{2, 3, 1}
	for _, w := range want {
		id, _, ok := q.Pop(noRescore(t))
		if !ok || id != w {
			t.Fatalf("Pop = %d, want %d", id, w)
		}
	}
	if _, _, ok := q.Pop(noRescore(t)); ok {
		t.Fatal("empty queue should report ok=false")
	}
}

func TestTiesBrokenByID(t *testing.T) {
	q := New()
	q.Push(9, 4)
	q.Push(2, 4)
	q.Push(5, 4)
	var got []int
	for i := 0; i < 3; i++ {
		id, _, _ := q.Pop(noRescore(t))
		got = append(got, id)
	}
	if got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("tie order = %v, want [2 5 9]", got)
	}
}

func TestLazyRescore(t *testing.T) {
	q := New()
	q.Push(1, 10)
	q.Push(2, 8)
	// Query 1 loses priority (e.g. records covered) down to 5.
	q.Invalidate(1)
	rescored := 0
	id, pri, ok := q.Pop(func(id int) (float64, bool) {
		rescored++
		if id != 1 {
			t.Fatalf("rescored %d", id)
		}
		return 5, true
	})
	if !ok || id != 2 || pri != 8 {
		t.Fatalf("Pop = (%d, %v), want (2, 8)", id, pri)
	}
	if rescored != 1 {
		t.Fatalf("rescored %d times", rescored)
	}
	if q.Repushes != 1 {
		t.Fatalf("Repushes = %d", q.Repushes)
	}
	id, pri, ok = q.Pop(noRescore(t))
	if !ok || id != 1 || pri != 5 {
		t.Fatalf("second Pop = (%d, %v), want (1, 5)", id, pri)
	}
}

func TestRescoreDrop(t *testing.T) {
	q := New()
	q.Push(1, 10)
	q.Push(2, 8)
	q.Invalidate(1)
	id, _, ok := q.Pop(func(int) (float64, bool) { return 0, false })
	if !ok || id != 2 {
		t.Fatalf("Pop = %d, want 2 after drop", id)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestInvalidateUnknownIDHarmless(t *testing.T) {
	q := New()
	q.Push(1, 1)
	q.Invalidate(42)
	id, _, ok := q.Pop(noRescore(t))
	if !ok || id != 1 {
		t.Fatalf("Pop = %d", id)
	}
}

func TestRescoreThenCleanReturnSamePop(t *testing.T) {
	q := New()
	q.Push(1, 10)
	q.Invalidate(1)
	// A single Pop rescores the stale entry and, once it is clean and
	// still on top, returns it.
	calls := 0
	id, pri, ok := q.Pop(func(int) (float64, bool) { calls++; return 10, true })
	if !ok || id != 1 || pri != 10 {
		t.Fatalf("Pop = (%d, %v, %v)", id, pri, ok)
	}
	if calls != 1 {
		t.Fatalf("rescore called %d times", calls)
	}
	if _, _, ok := q.Pop(noRescore(t)); ok {
		t.Fatal("queue should be empty")
	}
}

// TestMatchesEagerBaseline simulates many rounds of random decrements and
// verifies the lazy queue always yields the same selection sequence as an
// eager argmax scan — the equivalence claim behind §6.3.
func TestMatchesEagerBaseline(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(80)
		pri := make([]float64, n)
		alive := make([]bool, n)
		q := New()
		for i := 0; i < n; i++ {
			pri[i] = float64(rng.Intn(50) + 1)
			alive[i] = true
			q.Push(i, pri[i])
		}
		for round := 0; ; round++ {
			// Eager baseline: argmax over alive entries, ties by ID.
			best := -1
			bestPri := 0.0
			for i := 0; i < n; i++ {
				if alive[i] && (best == -1 || pri[i] > bestPri) {
					best, bestPri = i, pri[i]
				}
			}
			id, p, ok := q.Pop(func(id int) (float64, bool) {
				return pri[id], true
			})
			if best == -1 {
				if ok {
					t.Fatalf("trial %d: queue returned %d after baseline exhausted", trial, id)
				}
				break
			}
			if !ok {
				t.Fatalf("trial %d round %d: queue exhausted early", trial, round)
			}
			if id != best || p != bestPri {
				t.Fatalf("trial %d round %d: lazy (%d,%v) vs eager (%d,%v)",
					trial, round, id, p, best, bestPri)
			}
			alive[id] = false
			// Random decrements, mirroring covered records shrinking |q(D)|.
			for k := 0; k < 5; k++ {
				j := rng.Intn(n)
				if alive[j] {
					pri[j] -= float64(rng.Intn(3))
					q.Invalidate(j)
				}
			}
		}
	}
}

func BenchmarkLazyQueue(b *testing.B) {
	rng := stats.NewRNG(1)
	const n = 10000
	pri := make([]float64, n)
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		q := New()
		for i := 0; i < n; i++ {
			pri[i] = float64(rng.Intn(1000))
			q.Push(i, pri[i])
		}
		b.StartTimer()
		for {
			id, _, ok := q.Pop(func(id int) (float64, bool) { return pri[id], true })
			if !ok {
				break
			}
			for k := 0; k < 3; k++ {
				j := rng.Intn(n)
				if pri[j] > 0 {
					pri[j]--
					q.Invalidate(j)
				}
			}
			_ = id
		}
	}
}

// Sanity: popping everything yields each ID exactly once.
func TestPopYieldsEachIDOnce(t *testing.T) {
	q := New()
	const n = 500
	rng := stats.NewRNG(3)
	for i := 0; i < n; i++ {
		q.Push(i, rng.Float64())
	}
	var got []int
	for {
		id, _, ok := q.Pop(noRescore(t))
		if !ok {
			break
		}
		got = append(got, id)
	}
	if len(got) != n {
		t.Fatalf("popped %d, want %d", len(got), n)
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("missing or duplicate id near %d", i)
		}
	}
}

func TestReprioritize(t *testing.T) {
	q := New()
	pri := map[int]float64{1: 10, 2: 8, 3: 6, 4: 5}
	for id, p := range pri {
		q.Push(id, p)
	}
	// Global parameter change flips the ordering and drops one entry.
	pri[3] = 20
	pri[1] = 1
	q.Reprioritize(func(id int) (float64, bool) {
		if id == 4 {
			return 0, false
		}
		return pri[id], true
	})
	if q.Len() != 3 {
		t.Fatalf("Len = %d after drop", q.Len())
	}
	want := []int{3, 2, 1}
	for _, w := range want {
		id, p, ok := q.Pop(noRescore(t))
		if !ok || id != w || p != pri[w] {
			t.Fatalf("Pop = (%d, %v), want (%d, %v)", id, p, w, pri[w])
		}
	}
}

func TestReprioritizeClearsDirtyFlags(t *testing.T) {
	q := New()
	q.Push(1, 10)
	q.Invalidate(1)
	q.Reprioritize(func(int) (float64, bool) { return 7, true })
	// Entry is clean after the rebuild: Pop must not rescore.
	id, p, ok := q.Pop(noRescore(t))
	if !ok || id != 1 || p != 7 {
		t.Fatalf("Pop = (%d, %v)", id, p)
	}
}

// TestContainsTracksEntries pins membership through every way an entry
// leaves the heap: a clean Pop, a Pop or Peek that drops a stale entry,
// and a Reprioritize that drops one — and back in through a re-Push.
func TestContainsTracksEntries(t *testing.T) {
	q := New()
	if q.Contains(0) || q.Contains(100) {
		t.Fatal("empty queue contains an ID")
	}
	for id := 0; id < 5; id++ {
		q.Push(id, float64(id))
	}
	for id := 0; id < 5; id++ {
		if !q.Contains(id) {
			t.Fatalf("pushed %d, Contains = false", id)
		}
	}
	if id, _, _ := q.Pop(noRescore(t)); id != 4 || q.Contains(4) {
		t.Fatalf("Pop returned %d; Contains(4) = %v after popping it", id, q.Contains(4))
	}
	q.Invalidate(3)
	drop := func(int) (float64, bool) { return 0, false }
	if _, _, ok := q.Peek(drop); !ok || q.Contains(3) {
		t.Fatalf("Peek dropped stale 3 but Contains(3) = %v", q.Contains(3))
	}
	q.Reprioritize(func(id int) (float64, bool) { return float64(id), id != 1 })
	if q.Contains(1) || !q.Contains(0) || !q.Contains(2) {
		t.Fatalf("after Reprioritize dropping 1: Contains(0,1,2) = %v %v %v", q.Contains(0), q.Contains(1), q.Contains(2))
	}
	q.Push(4, 9)
	if !q.Contains(4) || q.Len() != 3 {
		t.Fatalf("re-pushed 4: Contains = %v, Len = %d", q.Contains(4), q.Len())
	}
}
