package uarch

// cache is a direct-mapped cache model: it tracks only hit/miss, since the
// timing model charges a flat miss penalty. tags holds each set's resident
// line, -1 when empty (lines are never negative).
type cache struct {
	lineShift uint
	mask      int64
	tags      []int64
}

// newCache builds a cache of sizeBytes in lineBytes lines. A positive span
// promises that every accessed byte address lies in [0, span). A set index
// (line & mask) is at most the line itself, so no access reaches a set past
// the last line below span, and the tag array stops there: the index
// function and every answer are those of the full array. A span <= 0
// promises nothing and keeps the full array.
func newCache(sizeBytes, lineBytes int, span int64) cache {
	lines := sizeBytes / lineBytes
	if lines < 1 {
		lines = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c := cache{
		lineShift: shift,
		mask:      int64(lines - 1),
		tags:      make([]int64, reach(lines, shift, span)),
	}
	c.flush()
	return c
}

// flush empties every line.
func (c *cache) flush() {
	for i := range c.tags {
		c.tags[i] = -1
	}
}

// access looks up the byte address, allocating the line; it reports a hit.
func (c *cache) access(addr int64) bool {
	line := addr >> c.lineShift
	idx := line & c.mask
	if c.tags[idx] == line {
		return true
	}
	c.tags[idx] = line
	return false
}

// btb is the branch target buffer: direct-mapped 2-bit saturating counters
// with a stored target for direction-and-target prediction. A branch is
// named by its ordinal (tentry.br), and slot maps it to its entry; the
// entry array holds only the entries the program's branches index (see
// btbLayout), and the tag check on the full pc is the full array's.
type btb struct {
	slot    []int32
	entries []btbEntry
}

type btbEntry struct {
	tag    int64
	target int64
	ctr    uint8
	valid  bool
}

// newBTB builds a BTB with the given layout, every entry empty.
func newBTB(l *btbLayout) btb {
	return btb{slot: l.slot, entries: make([]btbEntry, l.n)}
}

// reach returns how many of a table's n slots the index (a>>shift)&(n-1)
// can name for addresses a in [0, span): min(n, (span-1)>>shift + 1), or n
// when span <= 0.
func reach(n int, shift uint, span int64) int {
	if span > 0 {
		if last := (span - 1) >> shift; last+1 < int64(n) {
			return int(last + 1)
		}
	}
	return n
}

// predict returns the predicted direction and target for branch br at pc.
// Unknown branches predict not-taken (fall through).
func (b *btb) predict(br int32, pc int64) (taken bool, target int64) {
	e := &b.entries[b.slot[br]]
	if !e.valid || e.tag != pc {
		return false, 0
	}
	return e.ctr >= 2, e.target
}

// update trains branch br's entry with the actual outcome.
func (b *btb) update(br int32, pc int64, taken bool, target int64) {
	e := &b.entries[b.slot[br]]
	if !e.valid || e.tag != pc {
		e.valid = true
		e.tag = pc
		if taken {
			e.ctr = 2
		} else {
			e.ctr = 1
		}
		e.target = target
		return
	}
	if taken {
		if e.ctr < 3 {
			e.ctr++
		}
		e.target = target
	} else if e.ctr > 0 {
		e.ctr--
	}
}
