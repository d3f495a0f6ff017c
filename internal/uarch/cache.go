package uarch

// cache is a direct-mapped cache model: it tracks only hit/miss, since the
// timing model charges a flat miss penalty. tags holds each set's resident
// line, -1 when empty (lines are never negative).
type cache struct {
	lineShift uint
	mask      int64
	tags      []int64
}

func newCache(sizeBytes, lineBytes int) cache {
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
		tags:      make([]int64, lines),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
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
// with a stored target for direction-and-target prediction.
type btb struct {
	mask    int64
	entries []btbEntry
}

type btbEntry struct {
	tag    int64
	target int64
	ctr    uint8
	valid  bool
}

func newBTB(entries int) btb {
	if entries < 1 {
		entries = 1
	}
	return btb{
		mask:    int64(entries - 1),
		entries: make([]btbEntry, entries),
	}
}

// predict returns the predicted direction and target for the branch at pc.
// Unknown branches predict not-taken (fall through).
func (b *btb) predict(pc int64) (taken bool, target int64) {
	e := &b.entries[(pc>>2)&b.mask]
	if !e.valid || e.tag != pc {
		return false, 0
	}
	return e.ctr >= 2, e.target
}

// update trains the entry with the actual outcome.
func (b *btb) update(pc int64, taken bool, target int64) {
	e := &b.entries[(pc>>2)&b.mask]
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
