package crawler_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/relational"
)

// FuzzLoadResult ensures arbitrary (and adversarial) checkpoint bytes
// never panic the loader — they either parse into a consistent Result or
// fail with an error.
func FuzzLoadResult(f *testing.F) {
	f.Add(`{"version":1}`)
	f.Add(`{"version":1,"covered":[true,false],"steps":[{"query":["a"],"result_size":3}]}`)
	f.Add(`{"version":1,"crawled":[{"id":5,"values":["x"]}],"matches":[{"local":0,"hidden":5}]}`)
	f.Add(`{"version":99}`)
	f.Add(`not json at all`)
	f.Add(`[]`)
	f.Add(`{"version":1,"matches":[{"local":0,"hidden":7}]}`)
	// v2 seeds: a genuine checkpoint (written by SaveResult, so the CRC
	// and wrapper are exactly right), plus wrappers whose checksums are
	// valid but whose payloads violate internal invariants — the shapes
	// the structural validator, not the CRC, must reject.
	res := &crawler.Result{
		Covered: []bool{true, false}, CoveredCount: 1, QueriesIssued: 1,
		Matches: map[int]*relational.Record{0: {ID: 5, Values: []string{"x"}}},
		Crawled: map[int]*relational.Record{5: {ID: 5, Values: []string{"x"}}},
		Steps: []crawler.Step{{Query: deepweb.Query{"a"}, NewlyCovered: 1,
			CumulativeCovered: 1, ResultSize: 3, NewHidden: []int{5}}},
	}
	var buf bytes.Buffer
	if err := crawler.SaveResult(&buf, res); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	v2 := func(payload string) string {
		return fmt.Sprintf(`{"version":2,"journal_seq":7,"crc32":%d,"payload":%s}`,
			crc32.ChecksumIEEE([]byte(payload)), payload)
	}
	f.Add(v2(`{"version":2,"covered_count":5,"covered":[true]}`))                                                                                       // popcount lie
	f.Add(v2(`{"version":2,"queries_issued":0,"steps":[{"query":["a"]}]}`))                                                                             // more steps than queries
	f.Add(v2(`{"version":1}`))                                                                                                                          // version mismatch inside wrapper
	f.Add(v2(`{"version":2,"covered":[true],"covered_count":1,"queries_issued":1,"steps":[{"query":["a"],"newly_covered":1,"cumulative_covered":9}]}`)) // broken cumulative chain
	f.Add(`{"version":2,"journal_seq":1,"crc32":12345,"payload":{"version":2}}`)                                                                        // wrong CRC
	f.Add(`{"version":2,"payload":{"version":2}}`)                                                                                                      // missing CRC
	f.Fuzz(func(t *testing.T, s string) {
		res, err := crawler.LoadResult(strings.NewReader(s))
		if err != nil {
			return
		}
		// A successfully loaded checkpoint must be internally
		// consistent: the coverage count matches the bitmap, and every
		// match points at a crawled record.
		pop := 0
		for _, c := range res.Covered {
			if c {
				pop++
			}
		}
		if pop != res.CoveredCount {
			t.Fatalf("loaded CoveredCount %d but %d bits set", res.CoveredCount, pop)
		}
		if res.QueriesIssued < len(res.Steps) {
			t.Fatalf("loaded %d steps but only %d queries issued", len(res.Steps), res.QueriesIssued)
		}
		for d, h := range res.Matches {
			if h == nil {
				t.Fatalf("match %d is nil", d)
			}
			if _, ok := res.Crawled[h.ID]; !ok {
				t.Fatalf("match %d references uncrawled %d", d, h.ID)
			}
		}
	})
}

// FuzzSnapshotEncoder grows a Result from fuzz bytes the way crawls do —
// steps that first crawl records, records outside the step trace, newly
// covered matches, a changing resilience report — plus the changes that
// must drop the encoder's cache (a resume's fresh Result, a shorter step
// trace, a record leaving Crawled), and requires one SnapshotEncoder to
// write the reference encoder's bytes, or fail where it fails, at every
// write. Each op byte is a kind (low 3 bits) and an argument.
func FuzzSnapshotEncoder(f *testing.F) {
	f.Add([]byte{0, 8, 7, 2, 15, 7, 11, 27, 7, 4, 20, 7, 6, 0, 7, 5, 24, 7}, "a b\"c \\d \x01<e>&f \u2028g \xffh")
	f.Add([]byte{7, 16, 16, 16, 7, 253, 7, 5}, "")
	f.Add([]byte{24, 7, 1, 249, 7, 13, 7}, "nan")
	f.Fuzz(func(t *testing.T, ops []byte, text string) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		words := strings.Fields(text)
		word := func(i int) string {
			if len(words) == 0 {
				return ""
			}
			return words[i%len(words)]
		}
		const localLen = 8
		res := &crawler.Result{
			Covered: make([]bool, localLen),
			Matches: map[int]*relational.Record{},
			Crawled: map[int]*relational.Record{},
		}
		var enc crawler.SnapshotEncoder
		next := 0
		var last *relational.Record // the latest crawled record still in Crawled
		crawl := func(i int) int {
			// 613 is coprime to the prime 1021: distinct IDs, out of order.
			id := next*613%1021 - 300
			next++
			last = &relational.Record{ID: id, Values: []string{word(i), word(i + next)}}
			res.Crawled[id] = last
			return id
		}
		write := func(i int) { encodeBoth(t, fmt.Sprintf("write after op %d", i), &enc, res, uint64(i)) }
		for i, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0, 1: // absorb a step first crawling arg%4 records
				var ids []int
				for j := 0; j < arg%4; j++ {
					ids = append(ids, crawl(i))
				}
				if arg%5 == 4 && last != nil {
					ids = append(ids, last.ID) // a trace naming a record twice
				}
				benefit := float64(arg) / 3
				if op&7 == 1 && arg == 31 {
					benefit = math.NaN()
				}
				res.QueriesIssued++
				res.Steps = append(res.Steps, crawler.Step{
					Query: deepweb.Query{word(i), word(arg)}, EstimatedBenefit: benefit,
					ResultSize: arg, NewHidden: ids, Iface: arg % 3,
				})
			case 2: // a record outside the step trace
				crawl(i)
			case 3: // cover a local record with the last crawled one
				if d := arg % localLen; !res.Covered[d] && last != nil {
					res.Covered[d] = true
					res.CoveredCount++
					res.Matches[d] = last
				}
			case 4: // the resilience report changes or goes away
				if arg == 0 {
					res.Resilience = nil
					break
				}
				rep := &crawler.Resilience{Dispatched: arg, Requeued: arg % 3}
				if res.Resilience != nil {
					rep.ForfeitedQueries = append(rep.ForfeitedQueries, res.Resilience.ForfeitedQueries...)
				}
				rep.ForfeitedQueries = append(rep.ForfeitedQueries, word(arg))
				rep.Forfeited = len(rep.ForfeitedQueries)
				res.Resilience = rep
			case 5: // the step trace gets shorter (written at once: the cache sees it)
				res.Steps = res.Steps[:len(res.Steps)*arg/32]
				write(i)
			case 6:
				if arg%2 == 1 && last != nil { // a record leaves Crawled (written at once)
					delete(res.Crawled, last.ID)
					last = nil
					write(i)
					break
				}
				// A resume: a fresh Result with the same state.
				c := *res
				c.Steps = append([]crawler.Step(nil), res.Steps...)
				c.Crawled = make(map[int]*relational.Record, len(res.Crawled))
				for id, r := range res.Crawled {
					c.Crawled[id] = r
				}
				c.Matches = make(map[int]*relational.Record, len(res.Matches))
				for d, h := range res.Matches {
					c.Matches[d] = h
				}
				res = &c
			case 7:
				write(i)
			}
		}
		write(len(ops))
	})
}
