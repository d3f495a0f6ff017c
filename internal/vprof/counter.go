package vprof

import "math/bits"

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
// The table is three fixed arrays in arrival order, and slot order makes
// eviction deterministic: the victim is the minimum count, ties broken
// by the lowest slot. Each slot also keeps a one-byte fingerprint of its
// tuple, eight to a word, so a lookup compares all fingerprints with a
// few word operations and reads only the keys whose fingerprint matches;
// minMask tracks the slots holding the minimum count, so an eviction
// rarely scans the counts.
//
// Most instructions see fewer distinct tuples than the table holds, so
// the distinct-value list is allocated only when a miss first finds the
// table full. Until then nothing was evicted: the table's keys are every
// tuple seen, in arrival order, and distinct equals n.
type ValueCounter struct {
	keys   [counterCapacity]valueKey
	counts [counterCapacity]int64
	fps    [counterCapacity / 8]uint64
	n      int // slots in use
	total  int64
	// minMask marks the slots holding the minimum count once the table
	// is full: every other slot's count is higher. A slot whose count
	// grows leaves it; when it empties, the next eviction rescans.
	minMask uint32
	// distinct saturates at distinctSaturation and estimates the variety
	// of the instruction's input stream (the "limited set of values"
	// check); seen, nil until the table first overflows, holds the first
	// distinct tuples in arrival order.
	distinct int
	seen     *distinctList
}

// distinctList is a counter's first distinctSaturation distinct tuples,
// with one fingerprint byte per slot as in the table.
type distinctList struct {
	keys [distinctSaturation]valueKey
	fps  [distinctSaturation / 8]uint64
}

// counterCapacity is the table size; comfortably above the paper's
// five tracked invariant values.
const counterCapacity = 16

// distinctSaturation bounds the distinct-value estimator's memory.
const distinctSaturation = 64

const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// fingerprint hashes a tuple to one byte with its top bit set, so it
// never equals the zero byte of an unused slot.
func fingerprint(k valueKey) uint64 {
	h := (uint64(k.a)*0x9E3779B97F4A7C15 ^ uint64(k.b)) * 0xBF58476D1CE4E5B9
	return h>>57 | 0x80
}

// find returns the slot of k among keys, whose fingerprints (a byte per
// slot, unused slots zero) are packed in fps, or -1.
func find(fps []uint64, keys []valueKey, k valueKey, fp uint64) int {
	pat := fp * lsbs
	for w, word := range fps {
		x := word ^ pat
		// A byte of m is set where x has a zero byte (a matching
		// fingerprint), and possibly above one; keys settle both.
		for m := (x - lsbs) &^ x & msbs; m != 0; m &= m - 1 {
			if i := w*8 + bits.TrailingZeros64(m)>>3; keys[i] == k {
				return i
			}
		}
	}
	return -1
}

// setFP stores fingerprint fp for slot i.
func setFP(fps []uint64, i int, fp uint64) {
	sh := uint(i&7) * 8
	fps[i>>3] = fps[i>>3]&^(0xff<<sh) | fp<<sh
}

// Observe records one execution with input tuple (a, b).
func (c *ValueCounter) Observe(a, b int64) {
	k := valueKey{a, b}
	c.total++
	fp := fingerprint(k)
	if i := find(c.fps[:], c.keys[:], k, fp); i >= 0 {
		c.counts[i]++
		c.minMask &^= 1 << i
		return
	}
	// Only a table miss can be a new tuple. Until the table first fills
	// nothing was evicted, so a miss is new and the table is the list.
	if c.n < counterCapacity {
		c.keys[c.n] = k
		setFP(c.fps[:], c.n, fp)
		c.counts[c.n] = 1
		c.n++
		c.distinct++
		return
	}
	// Past that, until distinct saturates, seen holds every tuple
	// observed, so a table hit is already in it.
	if c.distinct < distinctSaturation {
		if c.seen == nil {
			c.seen = new(distinctList)
			copy(c.seen.keys[:], c.keys[:])
			copy(c.seen.fps[:], c.fps[:])
		}
		if find(c.seen.fps[:(c.distinct+7)/8], c.seen.keys[:], k, fp) < 0 {
			c.seen.keys[c.distinct] = k
			setFP(c.seen.fps[:], c.distinct, fp)
			c.distinct++
		}
	}
	// Space-saving replacement: evict the minimum (lowest slot on ties)
	// and inherit its count.
	if c.minMask == 0 {
		c.findMin()
	}
	mi := bits.TrailingZeros32(c.minMask)
	c.keys[mi] = k
	setFP(c.fps[:], mi, fp)
	c.counts[mi]++
	c.minMask &^= 1 << mi
}

// findMin sets minMask to the slots of the full table holding its
// minimum count.
func (c *ValueCounter) findMin() {
	lo := c.counts[0]
	for _, n := range c.counts[1:] {
		lo = min(lo, n)
	}
	for i, n := range c.counts {
		if n == lo {
			c.minMask |= 1 << i
		}
	}
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
