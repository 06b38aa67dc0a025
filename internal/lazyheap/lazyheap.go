// Package lazyheap implements the on-demand-updating priority queue of the
// paper's Section 6.3 and Figure 3(c). Selecting argmax |q(D)| naively
// requires rescanning the whole pool each iteration; instead, covered
// records only *invalidate* the affected queries (via the forward index),
// and a query's priority is recomputed lazily when it surfaces at the top
// of the heap — the delta-update index U of Algorithm 4. A popped query is
// returned only when its priority is clean, which preserves argmax
// correctness because priorities only ever decrease.
//
// The heap is hand-rolled rather than built on container/heap: the
// selection loop performs a push or pop per invalidated query per
// iteration, and the interface{} boxing of container/heap costs one
// allocation per operation on exactly that hot path. The dirty set is a
// dense []bool keyed by query ID (pool IDs are dense by construction), so
// invalidation and the staleness check are array indexing, not map probes.
package lazyheap

// Queue is a max-priority queue of query IDs with lazy revalidation.
// It is not safe for concurrent use.
type Queue struct {
	h     []entry
	dirty []bool
	// in[id] reports whether the heap holds an entry for id (Contains).
	in []bool

	// Repushes counts lazy re-insertions — the `t` factor in the paper's
	// Appendix B complexity analysis, reported by the ablation bench.
	Repushes int
}

type entry struct {
	id  int
	pri float64
}

// New returns an empty queue.
func New() *Queue { return &Queue{} }

// NewN returns an empty queue pre-sized for IDs 0..n-1, avoiding both the
// heap-array and dirty-set growth during the initial pool build.
func NewN(n int) *Queue {
	return &Queue{h: make([]entry, 0, n), dirty: make([]bool, n), in: make([]bool, n)}
}

// Push inserts a query with the given priority. An ID must not be pushed
// while the queue still holds it (see Contains); re-prioritization happens
// only through Invalidate + lazy rescoring.
func (q *Queue) Push(id int, priority float64) {
	q.grow(id)
	q.in[id] = true
	q.h = append(q.h, entry{id: id, pri: priority})
	q.up(len(q.h) - 1)
}

// Contains reports whether the queue holds an entry for id: pushed and
// not since popped or dropped (by Pop, Peek or Reprioritize).
func (q *Queue) Contains(id int) bool {
	return id < len(q.in) && q.in[id]
}

// grow extends the dense per-ID sets to cover id.
func (q *Queue) grow(id int) {
	if id < len(q.dirty) {
		return
	}
	dirty, in := make([]bool, id+1), make([]bool, id+1)
	copy(dirty, q.dirty)
	copy(in, q.in)
	q.dirty, q.in = dirty, in
}

// Len returns the number of queries currently queued.
func (q *Queue) Len() int { return len(q.h) }

// Invalidate marks a query's cached priority as stale. The next time the
// query reaches the top of the heap, rescore is consulted before it can be
// returned. Invalidating an ID not in the queue is a harmless no-op (the
// flag is cleared when the ID fails to appear).
func (q *Queue) Invalidate(id int) {
	q.grow(id)
	q.dirty[id] = true
}

// isDirty reports and clears nothing; bounds-checked dense lookup.
func (q *Queue) isDirty(id int) bool {
	return id < len(q.dirty) && q.dirty[id]
}

// Reprioritize rebuilds the whole queue by rescoring every entry — used
// when a global parameter of the scoring function changes (e.g. an online
// calibration constant), which may raise priorities and therefore cannot
// be handled by lazy invalidation (a stale low entry would hide beneath
// clean ones). Entries for which rescore returns keep=false are dropped.
// O(n) rescores plus O(n) heapify.
func (q *Queue) Reprioritize(rescore func(id int) (priority float64, keep bool)) {
	old := q.h
	q.h = q.h[:0]
	for _, e := range old {
		if q.isDirty(e.id) {
			q.dirty[e.id] = false
		}
		pri, keep := rescore(e.id)
		if !keep {
			q.in[e.id] = false
			continue
		}
		q.h = append(q.h, entry{id: e.id, pri: pri})
	}
	// Bottom-up heapify.
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// Pop returns the query with the largest up-to-date priority, removing it
// from the queue. For every stale query encountered at the top, rescore is
// called with its ID; rescore returns the fresh priority and whether the
// query should stay in the pool (keep=false drops it outright, used when
// |q(D)| has fallen to zero). Pop returns ok=false when the queue is
// exhausted.
//
// Correctness relies on priorities being non-increasing over time (covering
// records can only shrink |q(D)|): a clean top entry therefore dominates
// every stale entry's true priority.
func (q *Queue) Pop(rescore func(id int) (priority float64, keep bool)) (id int, priority float64, ok bool) {
	for len(q.h) > 0 {
		top := q.popTop()
		if !q.isDirty(top.id) {
			return top.id, top.pri, true
		}
		q.dirty[top.id] = false
		pri, keep := rescore(top.id)
		if !keep {
			continue
		}
		q.Repushes++
		q.Push(top.id, pri)
	}
	return 0, 0, false
}

// Peek returns the query a Pop would return, without removing it: stale
// top entries are rescored and re-inserted exactly as Pop would (including
// the Repushes accounting), so a Peek followed by a Pop with the same
// rescore performs no additional cleaning work. The federation allocator
// uses Peek to rank interfaces by their best clean benefit before
// committing the round to one of them. Peek returns ok=false when the
// queue is (or cleans down to) empty.
func (q *Queue) Peek(rescore func(id int) (priority float64, keep bool)) (id int, priority float64, ok bool) {
	for len(q.h) > 0 {
		top := q.h[0]
		if !q.isDirty(top.id) {
			return top.id, top.pri, true
		}
		q.popTop()
		q.dirty[top.id] = false
		pri, keep := rescore(top.id)
		if !keep {
			continue
		}
		q.Repushes++
		q.Push(top.id, pri)
	}
	return 0, 0, false
}

// popTop removes and returns the root entry.
func (q *Queue) popTop() entry {
	n := len(q.h) - 1
	top := q.h[0]
	q.in[top.id] = false
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

// less orders entries max-first on priority with ties broken by smaller ID
// so selection is fully deterministic.
func (q *Queue) less(i, j int) bool {
	if q.h[i].pri != q.h[j].pri {
		return q.h[i].pri > q.h[j].pri
	}
	return q.h[i].id < q.h[j].id
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		best := l
		if r < n && q.less(r, l) {
			best = r
		}
		if !q.less(best, i) {
			return
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}
