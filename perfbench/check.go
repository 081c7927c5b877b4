package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"datacell"
)

// reference recomputes the run's input from the seed: the checkers
// compare every delivered row against it.
type reference struct {
	w     *workload
	seed  uint64
	steps []step
}

func (r *reference) keys() int64 { return r.steps[len(r.steps)-1].keyEnd() }

// stsOf is the sts the generator stamped on tuple k.
func (r *reference) stsOf(k int64) (int64, bool) {
	si, g, ok := stepOf(r.steps, k)
	if !ok {
		return 0, false
	}
	return r.steps[si].sts(g), true
}

// cumulative counts, for each step, the tuples up to the end of that
// step that satisfy pred.
func (r *reference) cumulative(pred func(seed uint64, k int64) bool) []int64 {
	out := make([]int64, len(r.steps))
	var n int64
	for i, s := range r.steps {
		for k := s.keyBase; k < s.keyEnd(); k++ {
			if pred(r.seed, k) {
				n++
			}
		}
		out[i] = n
	}
	return out
}

// rowMatches reports whether every column of a delivered row holds
// tuple k's value.
func (r *reference) rowMatches(k int64, cols []string, row datacell.Row) bool {
	for i, c := range cols {
		got, ok := row[i].(int64)
		if !ok {
			return false
		}
		var want int64
		if c == "sts" {
			want, ok = r.stsOf(k)
		} else {
			want, ok = r.w.value(r.seed, k, c)
		}
		if !ok || got != want {
			return false
		}
	}
	return true
}

// A checker verifies one query's delivered rows. observe runs on the
// query's emitter thread; units and want let the runner wait until every
// expected result has arrived; failures is read once the run is over.
type checker interface {
	observe(t datacell.Table)
	units() int64
	// want is the units expected once steps 0..step are absorbed, or -1
	// when the query's output has no exact expectation.
	want(step int) int64
	failures() (n int64, detail string)
}

func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// filterCheck verifies a filter/projection query: every row is a tuple
// that passes the predicate, with every projected value intact, and each
// such tuple arrives exactly once.
type filterCheck struct {
	r      *reference
	keep   func(seed uint64, k int64) bool
	expect []int64

	mu         sync.Mutex
	seen       []uint64 // bitset over keys
	dup, wrong int64
	got        atomic.Int64
}

func newFilterCheck(r *reference, keep func(seed uint64, k int64) bool) *filterCheck {
	return &filterCheck{r: r, keep: keep, expect: r.cumulative(keep), seen: make([]uint64, (r.keys()+63)/64)}
}

func (c *filterCheck) observe(t datacell.Table) {
	ki := colIndex(t.Cols, "k")
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, row := range t.Rows {
		k, ok := int64(-1), false
		if ki >= 0 {
			k, ok = row[ki].(int64)
		}
		if !ok || k < 0 || k >= c.r.keys() || !c.keep(c.r.seed, k) || !c.r.rowMatches(k, t.Cols, row) {
			c.wrong++
			continue
		}
		if c.seen[k/64]&(1<<(k%64)) != 0 {
			c.dup++
			continue
		}
		c.seen[k/64] |= 1 << (k % 64)
		c.got.Add(1)
	}
}

func (c *filterCheck) units() int64        { return c.got.Load() }
func (c *filterCheck) want(step int) int64 { return c.expect[step] }

func (c *filterCheck) failures() (int64, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	missing := c.expect[len(c.expect)-1] - c.got.Load()
	return missing + c.dup + c.wrong, fmt.Sprintf("missing %d, duplicate %d, wrong %d", missing, c.dup, c.wrong)
}

// churnCheck verifies a query that lives for only part of a step: its
// rows have no exact expected count, but each must pass the predicate,
// carry intact values and arrive once.
type churnCheck struct {
	r    *reference
	keep func(seed uint64, k int64) bool

	mu         sync.Mutex
	seen       map[int64]struct{}
	dup, wrong int64
	got        atomic.Int64
}

func newChurnCheck(r *reference, keep func(seed uint64, k int64) bool) *churnCheck {
	return &churnCheck{r: r, keep: keep, seen: map[int64]struct{}{}}
}

func (c *churnCheck) observe(t datacell.Table) {
	ki := colIndex(t.Cols, "k")
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, row := range t.Rows {
		k, ok := int64(-1), false
		if ki >= 0 {
			k, ok = row[ki].(int64)
		}
		if !ok || !c.keep(c.r.seed, k) || !c.r.rowMatches(k, t.Cols, row) {
			c.wrong++
			continue
		}
		if _, dup := c.seen[k]; dup {
			c.dup++
			continue
		}
		c.seen[k] = struct{}{}
		c.got.Add(1)
	}
}

func (c *churnCheck) units() int64   { return c.got.Load() }
func (c *churnCheck) want(int) int64 { return -1 }

func (c *churnCheck) failures() (int64, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dup + c.wrong, fmt.Sprintf("duplicate %d, wrong %d", c.dup, c.wrong)
}

// segKey is one segstats group.
type segKey struct{ xway, dir, seg, minute int64 }

type segTotals struct {
	cars int64
	spd  float64 // Σ lav·cars delivered, or Σ spd in the reference
}

// segCheck verifies the segment-statistics aggregate. How tuples split
// into firings depends on batching, so per-firing rows legitimately vary:
// it folds the rows per group and compares Σcars with the reference
// count and Σ(lav·cars) with Σspd.
type segCheck struct {
	r      *reference
	expect []int64

	mu     sync.Mutex
	groups map[segKey]segTotals
	wrong  int64
	got    atomic.Int64
}

func lrPosition(seed uint64, k int64) bool { return lrFields(seed, k).typ == 0 }

func newSegCheck(r *reference) *segCheck {
	return &segCheck{r: r, expect: r.cumulative(lrPosition), groups: map[segKey]segTotals{}}
}

func (c *segCheck) observe(t datacell.Table) {
	idx := make([]int, 6)
	for i, n := range []string{"xway", "dir", "seg", "minute", "lav", "cars"} {
		idx[i] = colIndex(t.Cols, n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, row := range t.Rows {
		var key [4]int64
		ok := true
		for i := range key {
			if idx[i] < 0 {
				ok = false
				break
			}
			key[i], ok = row[idx[i]].(int64)
			if !ok {
				break
			}
		}
		var lav float64
		var cars int64
		if ok && idx[4] >= 0 && idx[5] >= 0 {
			lav, ok = row[idx[4]].(float64)
			if ok {
				cars, ok = row[idx[5]].(int64)
			}
		}
		if !ok || cars <= 0 {
			c.wrong++
			continue
		}
		k := segKey{key[0], key[1], key[2], key[3]}
		g := c.groups[k]
		g.cars += cars
		g.spd += lav * float64(cars)
		c.groups[k] = g
		c.got.Add(cars)
	}
}

func (c *segCheck) units() int64        { return c.got.Load() }
func (c *segCheck) want(step int) int64 { return c.expect[step] }

// reference folds the whole input per group.
func (c *segCheck) reference() map[segKey]segTotals {
	ref := map[segKey]segTotals{}
	for k := int64(0); k < c.r.keys(); k++ {
		t := lrFields(c.r.seed, k)
		if t.typ != 0 {
			continue
		}
		key := segKey{t.xway, t.dir, t.seg, t.time / 60}
		g := ref[key]
		g.cars++
		g.spd += float64(t.spd)
		ref[key] = g
	}
	return ref
}

func (c *segCheck) failures() (int64, string) {
	ref := c.reference()
	c.mu.Lock()
	defer c.mu.Unlock()
	bad := c.wrong
	for k, want := range ref {
		got := c.groups[k]
		if got.cars != want.cars || math.Abs(got.spd-want.spd) > 1e-9*math.Max(1, want.spd) {
			bad++
		}
	}
	extra := int64(0)
	for k := range c.groups {
		if _, ok := ref[k]; !ok {
			extra++
		}
	}
	return bad + extra, fmt.Sprintf("%d groups, %d wrong or missing, %d unexpected, %d malformed rows", len(ref), bad-c.wrong, extra, c.wrong)
}

// countCheck verifies a global count(*) aggregate: the delivered counts
// summed over firings equal the number of matching tuples.
type countCheck struct {
	expect []int64

	mu    sync.Mutex
	wrong int64
	got   atomic.Int64
}

func newCountCheck(r *reference, keep func(seed uint64, k int64) bool) *countCheck {
	return &countCheck{expect: r.cumulative(keep)}
}

func (c *countCheck) observe(t datacell.Table) {
	ni := colIndex(t.Cols, "n")
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, row := range t.Rows {
		n, ok := int64(0), false
		if ni >= 0 {
			n, ok = row[ni].(int64)
		}
		if !ok || n < 0 {
			c.wrong++
			continue
		}
		c.got.Add(n)
	}
}

func (c *countCheck) units() int64        { return c.got.Load() }
func (c *countCheck) want(step int) int64 { return c.expect[step] }

func (c *countCheck) failures() (int64, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.expect[len(c.expect)-1]
	diff := c.got.Load() - want
	if diff < 0 {
		diff = -diff
	}
	return diff + c.wrong, fmt.Sprintf("counted %d of %d, %d malformed rows", c.got.Load(), want, c.wrong)
}
