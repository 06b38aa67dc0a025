package freqmine

import (
	"fmt"
	"reflect"
	"testing"

	"smartcrawl/internal/stats"
)

// brute enumerates all itemsets (up to maxLen) by scanning transactions —
// the ground truth both miners are validated against.
func brute(txs [][]int, minSupport, maxLen int) []Itemset {
	counts := make(map[string]int)
	decode := make(map[string][]int)
	for _, t := range txs {
		u := sortedUnique(t)
		var rec func(start int, cur []int)
		rec = func(start int, cur []int) {
			if len(cur) > 0 {
				k := keyOf(cur)
				counts[k]++
				if _, ok := decode[k]; !ok {
					decode[k] = append([]int(nil), cur...)
				}
			}
			if len(cur) == maxLen {
				return
			}
			for i := start; i < len(u); i++ {
				rec(i+1, append(cur, u[i]))
			}
		}
		rec(0, nil)
	}
	var out []Itemset
	for k, c := range counts {
		if c >= minSupport {
			out = append(out, Itemset{Items: decode[k], Support: c})
		}
	}
	sortItemsets(out)
	return out
}

func randomTxs(rng *stats.RNG, n, vocab, maxItems int) [][]int {
	txs := make([][]int, n)
	for i := range txs {
		m := 1 + rng.Intn(maxItems)
		t := make([]int, m)
		for j := range t {
			t[j] = rng.Intn(vocab)
		}
		txs[i] = t
	}
	return txs
}

func TestMinersAgreeWithBruteForce(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 20; trial++ {
		txs := randomTxs(rng, 30, 8, 5)
		for _, minSup := range []int{1, 2, 3} {
			for _, maxLen := range []int{1, 2, 3, 4} {
				cfg := Config{MinSupport: minSup, MaxLen: maxLen}
				want := brute(txs, minSup, maxLen)
				fp := MineFPGrowth(txs, cfg)
				ap := MineApriori(txs, cfg)
				if !reflect.DeepEqual(fp, want) {
					t.Fatalf("trial %d t=%d len=%d: FP-Growth mismatch\n got %v\nwant %v",
						trial, minSup, maxLen, fp, want)
				}
				if !reflect.DeepEqual(ap, want) {
					t.Fatalf("trial %d t=%d len=%d: Apriori mismatch\n got %v\nwant %v",
						trial, minSup, maxLen, ap, want)
				}
			}
		}
	}
}

func TestMineRunningExample(t *testing.T) {
	// Tokens: 0=thai 1=noodle 2=house 3=saigon 4=ramen 5=grand.
	// Transactions mirror the fixture local database.
	txs := [][]int{
		{0, 1, 2},    // thai noodle house
		{3, 4},       // saigon ramen
		{0, 2},       // thai house
		{5, 1, 2, 0}, // grand noodle house thai
	}
	got := MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: 4})
	support := func(items ...int) int {
		for _, s := range got {
			if reflect.DeepEqual(s.Items, items) {
				return s.Support
			}
		}
		return -1
	}
	if support(2) != 3 { // house
		t.Errorf("support(house) = %d, want 3", support(2))
	}
	if support(0) != 3 { // thai
		t.Errorf("support(thai) = %d, want 3", support(0))
	}
	if support(1, 2) != 2 { // noodle house
		t.Errorf("support(noodle house) = %d, want 2", support(1, 2))
	}
	if support(1) != 2 { // noodle
		t.Errorf("support(noodle) = %d, want 2", support(1))
	}
	if support(3) != -1 { // saigon appears once: not frequent
		t.Errorf("saigon should not be frequent")
	}
}

func TestFilterClosedDominance(t *testing.T) {
	// The paper's Example 2: "noodle" (support 2) is dominated by
	// "noodle house" (support 2) and must be removed; "house" (support 3)
	// stays.
	txs := [][]int{
		{0, 1, 2},
		{3, 4},
		{0, 2},
		{5, 1, 2, 0},
	}
	mined := MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: 4})
	has := func(sets []Itemset, items ...int) bool {
		for _, s := range sets {
			if reflect.DeepEqual(s.Items, items) {
				return true
			}
		}
		return false
	}
	if !has(mined, 1) {
		t.Fatal("setup: {noodle} should be mined")
	}
	closed := FilterClosed(mined) // overwrites mined
	if has(closed, 1) {
		t.Error("{noodle} should be dominated by {thai, noodle, house}")
	}
	// In this universe every record containing "house" also contains
	// "thai", and every record with "noodle" has all of thai/noodle/house,
	// so the only closed sets are {thai, house} (support 3) and
	// {thai, noodle, house} (support 2).
	want := []Itemset{
		{Items: []int{0, 2}, Support: 3},
		{Items: []int{0, 1, 2}, Support: 2},
	}
	if !reflect.DeepEqual(closed, want) {
		t.Errorf("closed = %v, want %v", closed, want)
	}
}

// bruteClosed keeps the itemsets with no equal-support proper superset
// anywhere in sets — the definition FilterClosed implements.
func bruteClosed(sets []Itemset) []Itemset {
	var want []Itemset
	for i, a := range sets {
		dominated := false
		for j, b := range sets {
			if i == j || b.Support != a.Support || len(b.Items) <= len(a.Items) {
				continue
			}
			if isSubset(a.Items, b.Items) {
				dominated = true
				break
			}
		}
		if !dominated {
			want = append(want, a)
		}
	}
	return want
}

// checkClosed compares FilterClosed with the brute force on one
// collection. The reference runs first: FilterClosed overwrites its input.
func checkClosed(t *testing.T, name string, sets []Itemset) {
	t.Helper()
	want := bruteClosed(sets)
	got := FilterClosed(sets)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: closed filter mismatch\n got %v\nwant %v", name, got, want)
	}
}

// TestFilterClosedAgainstBruteForce checks the one-probe-per-dropped-item
// filter against the superset scan on the collection shapes its callers
// pass: plain FP-Growth results, results re-filtered at a higher exact
// threshold, and sampled results whose supports were recounted over all
// transactions and then filtered (querypool's sampled pool).
func TestFilterClosedAgainstBruteForce(t *testing.T) {
	rng := stats.NewRNG(33)
	for trial := 0; trial < 20; trial++ {
		txs := randomTxs(rng, 25, 7, 5)
		checkClosed(t, fmt.Sprintf("trial %d", trial), MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: 4}))
	}
	for trial := 0; trial < 30; trial++ {
		txs := randomTxs(rng, 40, 9, 6)
		maxLen := 2 + trial%3
		minSup := 1 + rng.Intn(2)
		mined := MineFPGrowth(txs, Config{MinSupport: minSup, MaxLen: maxLen})

		// Re-filtered at a higher exact threshold.
		higher := minSup + 1 + rng.Intn(4)
		var refiltered []Itemset
		for _, s := range mined {
			if s.Support >= higher {
				refiltered = append(refiltered, s)
			}
		}
		checkClosed(t, fmt.Sprintf("refilter trial %d (s=%d→%d, MaxLen %d)", trial, minSup, higher, maxLen), refiltered)

		// Mined over a sample, recounted over every transaction, and
		// filtered at the exact threshold.
		sample := txs[:10+rng.Intn(20)]
		exact := make(map[string]int)
		for _, s := range MineFPGrowth(txs, Config{MinSupport: 1, MaxLen: maxLen}) {
			exact[keyOf(s.Items)] = s.Support
		}
		var recounted []Itemset
		for _, s := range MineFPGrowth(sample, Config{MinSupport: minSup, MaxLen: maxLen}) {
			if sup := exact[keyOf(s.Items)]; sup >= higher {
				recounted = append(recounted, Itemset{Items: s.Items, Support: sup})
			}
		}
		checkClosed(t, fmt.Sprintf("recount trial %d (|sample|=%d, s=%d, t=%d, MaxLen %d)", trial, len(sample), minSup, higher, maxLen), recounted)
	}
}

func TestMaxLenBound(t *testing.T) {
	txs := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}
	for _, maxLen := range []int{1, 2, 3} {
		sets := MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: maxLen})
		for _, s := range sets {
			if len(s.Items) > maxLen {
				t.Fatalf("maxLen %d violated: %v", maxLen, s)
			}
		}
	}
	// Unbounded (MaxLen 0) must include the full 4-itemset.
	sets := MineFPGrowth(txs, Config{MinSupport: 2})
	found := false
	for _, s := range sets {
		if len(s.Items) == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("unbounded mining should find the 4-itemset")
	}
}

func TestDuplicateItemsInTransaction(t *testing.T) {
	// Duplicates inside a transaction must not inflate support.
	txs := [][]int{{0, 0, 0}, {0}}
	sets := MineFPGrowth(txs, Config{MinSupport: 2})
	if len(sets) != 1 || sets[0].Support != 2 {
		t.Fatalf("sets = %v", sets)
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := MineFPGrowth(nil, Config{MinSupport: 2}); len(got) != 0 {
		t.Fatalf("mining nil transactions = %v", got)
	}
	if got := MineApriori([][]int{}, Config{MinSupport: 1}); len(got) != 0 {
		t.Fatalf("mining empty transactions = %v", got)
	}
	if got := FilterClosed(nil); len(got) != 0 {
		t.Fatalf("FilterClosed(nil) = %v", got)
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	rng := stats.NewRNG(44)
	txs := randomTxs(rng, 40, 10, 6)
	a := MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: 3})
	b := MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: 3})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mining must be deterministic")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Support < a[i].Support {
			t.Fatal("output must be sorted by descending support")
		}
	}
}

// Itemsets on Zipfian data (the realistic workload shape for query pools).
func TestZipfianWorkload(t *testing.T) {
	rng := stats.NewRNG(55)
	zipf := stats.NewZipf(rng, 1.1, 200)
	txs := make([][]int, 500)
	for i := range txs {
		t := make([]int, 6)
		for j := range t {
			t[j] = zipf.Draw()
		}
		txs[i] = t
	}
	sets := MineFPGrowth(txs, Config{MinSupport: 5, MaxLen: 3})
	if len(sets) == 0 {
		t.Fatal("Zipfian data should produce frequent itemsets")
	}
	// Verify a few supports by scanning.
	for _, s := range sets[:min(10, len(sets))] {
		count := 0
		for _, tx := range txs {
			if containsAll(sortedUnique(tx), s.Items) {
				count++
			}
		}
		if count != s.Support {
			t.Fatalf("itemset %v support %d, scan says %d", s.Items, s.Support, count)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkFPGrowthZipf(b *testing.B) {
	rng := stats.NewRNG(1)
	zipf := stats.NewZipf(rng, 1.0, 2000)
	txs := make([][]int, 10000)
	for i := range txs {
		t := make([]int, 8)
		for j := range t {
			t[j] = zipf.Draw()
		}
		txs[i] = t
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: 3})
	}
}

func BenchmarkAprioriSmall(b *testing.B) {
	rng := stats.NewRNG(2)
	txs := randomTxs(rng, 200, 50, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineApriori(txs, Config{MinSupport: 2, MaxLen: 3})
	}
}

func ExampleMineFPGrowth() {
	txs := [][]int{{1, 2}, {1, 2, 3}, {1, 3}}
	sets := MineFPGrowth(txs, Config{MinSupport: 2, MaxLen: 2})
	for _, s := range sets {
		fmt.Println(s.Items, s.Support)
	}
	// Output:
	// [1] 3
	// [2] 2
	// [3] 2
	// [1 2] 2
	// [1 3] 2
}

// TestMineFPGrowthParallelMatchesSequential: partitioned mining (one shard
// per top-level conditional tree) must return exactly the itemsets of the
// sequential miner — same sets, same supports, same canonical order.
func TestMineFPGrowthParallelMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		txs := randomTxs(rng, 200, 20, 8)
		for _, minSup := range []int{2, 5} {
			for _, maxLen := range []int{3, 5} {
				seq := MineFPGrowth(txs, Config{MinSupport: minSup, MaxLen: maxLen})
				for _, workers := range []int{2, 4, 16} {
					par := MineFPGrowth(txs, Config{MinSupport: minSup, MaxLen: maxLen, Workers: workers})
					if !reflect.DeepEqual(par, seq) {
						t.Fatalf("trial %d sup=%d len=%d workers=%d: parallel mining diverged\n got %v\nwant %v",
							trial, minSup, maxLen, workers, par, seq)
					}
				}
			}
		}
	}
}
