package vprof

import "slices"

// valueKey is the profiled input tuple of one instruction execution.
type valueKey struct {
	a, b int64
}

// ValueCounter approximates the most-frequent input tuples of an
// instruction with the space-saving algorithm: a fixed-capacity counter
// table where the minimum-count victim is replaced (inheriting its count)
// when a new tuple arrives at capacity. TopK weights are therefore upper
// bounds, which matches the paper's use of profiled invariance as an
// optimistic reuse estimate.
//
// Both tables are fixed arrays scanned linearly; at these sizes a scan
// beats hashing, and slot order makes eviction deterministic: the victim
// is the minimum count, ties broken by the lowest slot.
type ValueCounter struct {
	keys   [counterCapacity]valueKey
	counts [counterCapacity]int64
	n      int // slots in use
	total  int64
	// distinct saturates at distinctSaturation and estimates the variety
	// of the instruction's input stream (the "limited set of values"
	// check); seen holds the first distinct tuples in arrival order.
	distinct int
	seen     [distinctSaturation]valueKey
}

// counterCapacity is the table size; comfortably above the paper's
// five tracked invariant values.
const counterCapacity = 16

// distinctSaturation bounds the distinct-value estimator's memory.
const distinctSaturation = 64

// Observe records one execution with input tuple (a, b).
func (c *ValueCounter) Observe(a, b int64) {
	k := valueKey{a, b}
	c.total++
	for i := range c.keys[:c.n] {
		if c.keys[i] == k {
			c.counts[i]++
			return
		}
	}
	// Only a table miss can be a new tuple: until distinct saturates,
	// seen holds every tuple observed, so a table hit is already in it.
	if c.distinct < distinctSaturation && !slices.Contains(c.seen[:c.distinct], k) {
		c.seen[c.distinct] = k
		c.distinct++
	}
	if c.n < counterCapacity {
		c.keys[c.n] = k
		c.counts[c.n] = 1
		c.n++
		return
	}
	// Space-saving replacement: evict the minimum (lowest slot on ties)
	// and inherit its count.
	mi := 0
	for i := 1; i < counterCapacity; i++ {
		if c.counts[i] < c.counts[mi] {
			mi = i
		}
	}
	c.keys[mi] = k
	c.counts[mi]++
}

// Total returns the number of observations.
func (c *ValueCounter) Total() int64 { return c.total }

// Distinct returns the (saturating) count of distinct input tuples seen.
func (c *ValueCounter) Distinct() int { return c.distinct }

// TopK returns the combined weight of the k most frequent tuples.
func (c *ValueCounter) TopK(k int) int64 {
	// Partial selection over a copy of the ≤16-entry table.
	counts := c.counts
	live := counts[:c.n]
	var sum int64
	for ; k > 0 && len(live) > 0; k-- {
		mi := 0
		for i := 1; i < len(live); i++ {
			if live[i] > live[mi] {
				mi = i
			}
		}
		sum += live[mi]
		live[mi] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return sum
}

// Invariance returns TopK(k)/Total — the fraction of executions covered by
// the k most frequent input tuples (heuristic function 1 of §4.4).
func (c *ValueCounter) Invariance(k int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.TopK(k)) / float64(c.total)
}
