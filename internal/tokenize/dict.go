package tokenize

import "slices"

// Dict is an interned token dictionary: a bijection between the corpus
// vocabulary and dense uint32 token IDs. The crawler's hot paths — pool
// resolution, inverted-index intersections, and the per-iteration sample-
// match maintenance — run on token IDs instead of strings, turning every
// map[string] probe into integer compares over sorted []uint32 slices.
//
// A Dict is built once from the corpus scan and then frozen: IDs never
// change afterwards, so resolved ID slices stay valid for the lifetime of
// the crawl. When the dictionary is built from a lexicographically sorted
// vocabulary (BuildDict, or the corpus scan index.ScanDict), token IDs
// are monotone in token order — a sorted keyword list resolves to a
// sorted ID list for free; Resolve sorts defensively anyway so the
// invariant holds for any insertion order.
//
// Tokens outside the dictionary simply have no ID. That is not a loss of
// information for the crawler: every pool query keyword comes from the
// local corpus the Dict was built over, so an unknown token (for example
// a sample-only word) can never appear in a query and dropping it from an
// interned token set changes no membership test a query can ask.
type Dict struct {
	ids    map[string]uint32
	words  []string
	frozen bool
}

// NewDict returns an empty, unfrozen dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// BuildDict interns the given vocabulary in slice order and freezes the
// dictionary. Callers pass a sorted, deduplicated vocabulary to get
// order-preserving IDs (id(a) < id(b) ⇔ a < b).
func BuildDict(vocab []string) *Dict {
	d := &Dict{
		ids:   make(map[string]uint32, len(vocab)),
		words: make([]string, 0, len(vocab)),
	}
	for _, w := range vocab {
		d.Intern(w)
	}
	d.Freeze()
	return d
}

// Intern returns the ID of w, assigning the next dense ID on first sight.
// Panics on a frozen dictionary — interning after the corpus scan would
// silently break the ID-order invariant resolved slices rely on.
func (d *Dict) Intern(w string) uint32 {
	if id, ok := d.ids[w]; ok {
		return id
	}
	if d.frozen {
		panic("tokenize: Intern on frozen Dict")
	}
	id := uint32(len(d.words))
	d.ids[w] = id
	d.words = append(d.words, w)
	return id
}

// Freeze makes the dictionary immutable. Idempotent.
func (d *Dict) Freeze() { d.frozen = true }

// Frozen reports whether the dictionary is immutable.
func (d *Dict) Frozen() bool { return d.frozen }

// Len returns the vocabulary size; valid IDs are 0..Len()-1.
func (d *Dict) Len() int { return len(d.words) }

// ID returns the token ID of w and whether w is in the dictionary.
func (d *Dict) ID(w string) (uint32, bool) {
	id, ok := d.ids[w]
	return id, ok
}

// Word returns the token with the given ID.
func (d *Dict) Word(id uint32) string { return d.words[id] }

// Resolve maps a keyword list to its sorted ID slice. The second return
// is false when any keyword is unknown — such a query can match nothing
// the dictionary's corpus contains.
func (d *Dict) Resolve(words []string) ([]uint32, bool) {
	ids := make([]uint32, len(words))
	for i, w := range words {
		id, ok := d.ids[w]
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	sortU32(ids)
	return ids, true
}

// SortedSet maps a token list to its sorted, deduplicated ID set,
// silently dropping unknown tokens (see the type comment for why that is
// sound). This is the interned form of Tokenizer.Set.
func (d *Dict) SortedSet(words []string) []uint32 {
	ids := make([]uint32, 0, len(words))
	for _, w := range words {
		if id, ok := d.ids[w]; ok {
			ids = append(ids, id)
		}
	}
	sortU32(ids)
	// Dedup in place: Tokens keeps duplicates, sets must not.
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// sortU32 sorts a small ID slice ascending. Keyword lists are tiny
// (usually ≤ 5), so insertion sort beats the general sort's dispatch;
// longer slices (token sets) fall back to the standard sort.
func sortU32(s []uint32) {
	if len(s) > 16 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ContainsAllSorted reports whether the sorted ID set `set` contains every
// ID of the sorted query slice q — the interned membership kernel behind
// countSatisfying. Both slices ascending; q may contain duplicates. Runs
// as a single merge scan.
func ContainsAllSorted(set, q []uint32) bool {
	i := 0
	for _, w := range q {
		for i < len(set) && set[i] < w {
			i++
		}
		if i >= len(set) || set[i] != w {
			return false
		}
	}
	return true
}
