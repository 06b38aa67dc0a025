// Package freqmine implements frequent-itemset mining over keyword
// transactions, the engine behind the paper's query-pool generation (§3.1):
// treating each local record's distinct keywords as a transaction, every
// itemset with support ≥ t becomes a candidate query with |q(D)| ≥ t.
//
// Two miners are provided: FP-Growth (Han et al. [24], the algorithm the
// paper cites) as the production path, and Apriori as an independent
// baseline used by property tests to cross-validate results. A closed-
// itemset filter implements the paper's dominance pruning — a query q₂ is
// dominated by q₁ when |q₁(D)| = |q₂(D)| and q₁ ⊇ q₂, which is precisely
// the statement that q₂ is a non-closed itemset.
package freqmine

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// Itemset is a frequent itemset: sorted item IDs plus the number of
// transactions containing all of them.
type Itemset struct {
	Items   []int
	Support int
}

// Config bounds a mining run.
type Config struct {
	// MinSupport is the paper's frequency threshold t (≥ 1). Itemsets
	// must appear in at least MinSupport transactions.
	MinSupport int
	// MaxLen bounds itemset cardinality; 0 means unbounded. The paper's
	// pool generation needs only short queries (long ones are covered by
	// the per-record naive queries), and bounding the length keeps the
	// 2^|d| candidate space tractable.
	MaxLen int
	// Workers partitions the top-level mining loop — one task per
	// frequent item's conditional tree — across a goroutine pool. The
	// global FP-tree is read-only once built, so partitions share it
	// without locking; each worker collects into a private slice and the
	// shards are concatenated before the final canonical sort, making the
	// output identical for any worker count. 0 or 1 mines sequentially.
	Workers int
}

func (c Config) maxLen() int {
	if c.MaxLen <= 0 {
		return int(^uint(0) >> 1)
	}
	return c.MaxLen
}

// MineFPGrowth returns all itemsets with support ≥ cfg.MinSupport and
// length ≤ cfg.MaxLen, in deterministic order (by descending support, then
// lexicographic items). Transactions are slices of item IDs; duplicates
// within a transaction are ignored.
func MineFPGrowth(transactions [][]int, cfg Config) []Itemset {
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	var (
		items []int
		tree  *fpTree
	)
	if maxItem, _, dense := denseItemSpace(transactions); dense {
		items, tree = buildTreeDense(transactions, cfg.MinSupport, maxItem)
	} else {
		items, tree = buildTreeMap(transactions, cfg.MinSupport)
	}

	var out []Itemset
	if cfg.Workers > 1 && len(items) > 1 {
		out = mineParallel(tree, cfg.MinSupport, cfg.maxLen(), cfg.Workers)
	} else {
		mineTree(tree, nil, cfg.MinSupport, cfg.maxLen(), &out)
	}

	// Translate ranks back to item IDs and canonicalize.
	for i := range out {
		for j, r := range out[i].Items {
			out[i].Items[j] = items[r]
		}
		sort.Ints(out[i].Items)
	}
	sortItemsets(out)
	return out
}

// denseItemSpace reports whether the transactions' item IDs are dense
// non-negative integers — the shape querypool produces (vocabulary
// indices) — along with the maximum item and the total item count. Dense
// inputs take the slice-backed preprocessing path; anything with negative
// IDs or an ID space far larger than the data falls back to maps.
func denseItemSpace(transactions [][]int) (maxItem, total int, dense bool) {
	maxItem = -1
	for _, t := range transactions {
		for _, it := range t {
			if it < 0 {
				return 0, 0, false
			}
			if it > maxItem {
				maxItem = it
			}
			total++
		}
	}
	if maxItem < 0 {
		return 0, 0, false // no items at all; map path handles trivially
	}
	return maxItem, total, maxItem <= 8*total+4096
}

// buildTreeDense is the allocation-light preprocessing path for dense
// item IDs: counting, filtering, ranking, and per-transaction dedup all
// run over flat slices with a generation-stamped scratch array, so the
// whole corpus scan costs a handful of allocations instead of one map
// (plus one sorted copy) per transaction. Output is identical to
// buildTreeMap: the frequent-item order is a total order (frequency desc,
// item asc), so the canonical ranks do not depend on iteration order.
func buildTreeDense(transactions [][]int, minSupport, maxItem int) ([]int, *fpTree) {
	freq := make([]int, maxItem+1)
	stamp := make([]int, maxItem+1) // 1-based transaction generation
	for g, t := range transactions {
		gen := g + 1
		for _, it := range t {
			if stamp[it] != gen {
				stamp[it] = gen
				freq[it]++
			}
		}
	}
	var items []int
	for it, f := range freq {
		if f >= minSupport {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(a, b int) bool {
		if freq[items[a]] != freq[items[b]] {
			return freq[items[a]] > freq[items[b]]
		}
		return items[a] < items[b]
	})
	rank := make([]int, maxItem+1)
	for i := range rank {
		rank[i] = -1
	}
	for i, it := range items {
		rank[it] = i
	}

	tree := newFPTree(len(items))
	// Reuse the counting scratch: there are at most maxItem+1 frequent
	// items, so the ranks fit in the same backing array.
	rstamp := stamp[:len(items)]
	for i := range rstamp {
		rstamp[i] = -1
	}
	ranked := make([]int, 0, 64)
	for g, t := range transactions {
		ranked = ranked[:0]
		for _, it := range t {
			r := rank[it]
			if r < 0 || rstamp[r] == g {
				continue
			}
			rstamp[r] = g
			ranked = append(ranked, r)
		}
		sort.Ints(ranked)
		tree.insert(ranked, 1) // insert copies nothing it retains beyond counts
	}
	return items, tree
}

// buildTreeMap is the generic preprocessing path for arbitrary item IDs
// (sparse or negative), retained for non-querypool callers and as the
// reference the dense path is equivalence-tested against.
func buildTreeMap(transactions [][]int, minSupport int) ([]int, *fpTree) {
	freq := countItems(transactions)

	// Frequent items ordered by descending frequency (ties: ascending
	// ID), the canonical FP-tree insertion order.
	var items []int
	for it, f := range freq {
		if f >= minSupport {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(a, b int) bool {
		if freq[items[a]] != freq[items[b]] {
			return freq[items[a]] > freq[items[b]]
		}
		return items[a] < items[b]
	})
	rank := make(map[int]int, len(items))
	for i, it := range items {
		rank[it] = i
	}

	tree := newFPTree(len(items))
	for _, t := range transactions {
		filtered := filterAndRank(t, rank)
		tree.insert(filtered, 1)
	}
	return items, tree
}

// mineParallel fans the top-level items of the global FP-tree out over a
// worker pool. Items are claimed highest-rank-first (least frequent),
// matching the sequential walk: rare items have small conditional bases,
// so the expensive frequent items drain last and the pool stays busy.
// Shards are concatenated in rank order; the caller's canonical sort makes
// the ordering irrelevant to the final output.
func mineParallel(tree *fpTree, minSupport, maxLen, workers int) []Itemset {
	n := len(tree.header)
	if workers > n {
		workers = n
	}
	shards := make([][]Itemset, n)
	ranks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ranks {
				var out []Itemset
				mineItem(tree, r, nil, minSupport, maxLen, &out)
				shards[r] = out
			}
		}()
	}
	for r := n - 1; r >= 0; r-- {
		ranks <- r
	}
	close(ranks)
	wg.Wait()
	var out []Itemset
	for r := n - 1; r >= 0; r-- {
		out = append(out, shards[r]...)
	}
	return out
}

// MineApriori is the level-wise baseline miner with identical semantics to
// MineFPGrowth. Exponentially slower on dense data; used for validation.
func MineApriori(transactions [][]int, cfg Config) []Itemset {
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	// Deduplicate items within transactions and keep them sorted.
	txs := make([][]int, len(transactions))
	for i, t := range transactions {
		txs[i] = sortedUnique(t)
	}

	freq := countItems(txs)
	var level [][]int
	for it, f := range freq {
		if f >= cfg.MinSupport {
			level = append(level, []int{it})
		}
	}
	sort.Slice(level, func(a, b int) bool { return level[a][0] < level[b][0] })

	var out []Itemset
	for len(level) > 0 {
		// Count supports of this level's candidates.
		var frequent [][]int
		for _, cand := range level {
			sup := 0
			for _, t := range txs {
				if containsAll(t, cand) {
					sup++
				}
			}
			if sup >= cfg.MinSupport {
				out = append(out, Itemset{Items: append([]int(nil), cand...), Support: sup})
				frequent = append(frequent, cand)
			}
		}
		if len(frequent) == 0 || len(level[0]) >= cfg.maxLen() {
			break
		}
		level = joinLevel(frequent)
	}
	sortItemsets(out)
	return out
}

// joinLevel produces (k+1)-candidates from sorted k-itemsets sharing their
// first k−1 items (classic Apriori join), with the subset-pruning step.
func joinLevel(frequent [][]int) [][]int {
	freqSet := make(map[string]bool, len(frequent))
	for _, f := range frequent {
		freqSet[keyOf(f)] = true
	}
	var next [][]int
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			if !samePrefix(a, b) {
				continue
			}
			cand := append(append([]int(nil), a...), b[len(b)-1])
			sort.Ints(cand)
			// Prune: all k-subsets must be frequent.
			ok := true
			for drop := 0; drop < len(cand); drop++ {
				sub := make([]int, 0, len(cand)-1)
				sub = append(sub, cand[:drop]...)
				sub = append(sub, cand[drop+1:]...)
				if !freqSet[keyOf(sub)] {
					ok = false
					break
				}
			}
			if ok {
				next = append(next, cand)
			}
		}
	}
	return next
}

func samePrefix(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[len(a)-1] != b[len(b)-1]
}

func keyOf(items []int) string {
	b := make([]byte, 0, len(items)*3)
	for _, it := range items {
		for it >= 128 {
			b = append(b, byte(it&0x7f)|0x80)
			it >>= 7
		}
		b = append(b, byte(it))
	}
	return string(b)
}

// FilterClosed removes non-closed itemsets: any itemset with a proper
// superset of equal support in the input. This is the paper's dominance
// rule — among queries with the same |q(D)|, keep only the most specific
// (e.g. drop "noodle" when "noodle house" has the same frequency).
// Note the filter is relative to the mined collection: with a MaxLen bound,
// supersets longer than the bound are not considered (they are not pool
// candidates either, so dominance against them is irrelevant).
//
// Precondition: the collection is downward closed under its length bound
// (every non-empty subset of a member is a member) and supports are
// monotone (a subset's support is at least its superset's). Then X is
// dominated exactly when some immediate superset X∪{y} in the collection
// has X's support. Proof: if X ⊂ Y with supp(X) = supp(Y), pick y ∈ Y∖X;
// X∪{y} ⊆ Y is a member, and supp(X) ≥ supp(X∪{y}) ≥ supp(Y) = supp(X).
// A plain FP-Growth result qualifies, and so does a sampled result with
// exact recounted supports filtered at a threshold: whenever Y survives,
// every subset of Y was mined from the same sample records and has an
// exact support at least Y's. So the filter probes each (itemset, dropped
// item) pair once — a binary search for Y minus one item among the
// itemsets of Y's support — instead of scanning every candidate superset.
//
// The result keeps the input order and reuses the input's backing array:
// sets is overwritten.
func FilterClosed(sets []Itemset) []Itemset {
	// perm orders the itemsets by (support, items), so each support value
	// is one contiguous run sorted by items.
	perm := make([]int32, len(sets))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(sets[a].Support, sets[b].Support); c != 0 {
			return c
		}
		return slices.Compare(sets[a].Items, sets[b].Items)
	})
	dominated := make([]bool, len(sets))
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && sets[perm[hi]].Support == sets[perm[lo]].Support {
			hi++
		}
		run := perm[lo:hi]
		for _, yi := range run {
			y := sets[yi].Items
			if len(y) < 2 {
				continue // the empty itemset is never a member
			}
			for drop := range y {
				if j, ok := slices.BinarySearchFunc(run, drop, func(x int32, drop int) int {
					return compareWithout(sets[x].Items, y, drop)
				}); ok {
					dominated[run[j]] = true
				}
			}
		}
		lo = hi
	}
	out := sets[:0]
	for i, s := range sets {
		if !dominated[i] {
			out = append(out, s)
		}
	}
	return out
}

// compareWithout compares sorted a with sorted b minus its element at
// index drop, lexicographically (a proper prefix sorts first).
func compareWithout(a, b []int, drop int) int {
	j := 0
	for i, v := range b {
		if i == drop {
			continue
		}
		if j == len(a) {
			return -1
		}
		if a[j] != v {
			return cmp.Compare(a[j], v)
		}
		j++
	}
	if j < len(a) {
		return 1
	}
	return 0
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i == len(a) {
			return true
		}
		if a[i] == v {
			i++
		} else if a[i] < v {
			return false
		}
	}
	return i == len(a)
}

func countItems(transactions [][]int) map[int]int {
	freq := make(map[int]int)
	for _, t := range transactions {
		for _, it := range sortedUnique(t) {
			freq[it]++
		}
	}
	return freq
}

func sortedUnique(t []int) []int {
	if len(t) == 0 {
		return nil
	}
	cp := append([]int(nil), t...)
	sort.Ints(cp)
	out := cp[:1]
	for _, v := range cp[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func containsAll(sortedTx, sortedItems []int) bool {
	return isSubset(sortedItems, sortedTx)
}

func sortItemsets(sets []Itemset) {
	sort.Slice(sets, func(a, b int) bool {
		sa, sb := sets[a], sets[b]
		if sa.Support != sb.Support {
			return sa.Support > sb.Support
		}
		if len(sa.Items) != len(sb.Items) {
			return len(sa.Items) < len(sb.Items)
		}
		for i := range sa.Items {
			if sa.Items[i] != sb.Items[i] {
				return sa.Items[i] < sb.Items[i]
			}
		}
		return false
	})
}
