package region

import (
	"sort"

	"ccr/internal/ir"
)

// seedScore orders candidate seed blocks by execution weight, reuse
// potential, and block size — the seed-selection criteria of §4.4.
func (c *funcCtx) seedScore(b ir.BlockID) float64 {
	blk := c.f.Blocks[b]
	w := float64(c.prof.BlockExec(c.f.ID, b))
	if w == 0 {
		return 0
	}
	inv := 0.0
	judged := 0
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if trivialInvariance(in.Op) {
			continue
		}
		judged++
		inv += c.prof.Invariance(c.ref(b, i), c.opts.InvariantValues)
	}
	avgInv := 1.0
	if judged > 0 {
		avgInv = inv / float64(judged)
	}
	return w * avgInv * float64(len(blk.Instrs))
}

// likelySucc returns the successor of block b whose edge weight is at
// least the LikelyEdge fraction of b's weight, or NoBlock.
func (c *funcCtx) likelySucc(b ir.BlockID) ir.BlockID {
	w := c.prof.BlockExec(c.f.ID, b)
	if w == 0 {
		return ir.NoBlock
	}
	blk := c.f.Blocks[b]
	t := blk.Terminator()
	for _, succ := range c.g.Succs[b] {
		var ew int64
		if t != nil && t.Op.IsCondBranch() {
			ew = c.prof.EdgeWeight(c.ref(b, len(blk.Instrs)-1), t.Target == succ)
		} else {
			ew = w
		}
		if float64(ew) >= c.opts.LikelyEdge*float64(w) {
			return succ
		}
	}
	return ir.NoBlock
}

// growable reports whether block nb can join the region tentatively rooted
// at entry: admissible and unclaimed, and the grown region stays acyclic,
// still has an edge leaving it, loads only determinable memory, and keeps
// its input bank and memory objects within capacity. Outputs depend on
// the continuation and are checked only when the region is finished.
func (c *funcCtx) growable(blocks blockSet, entry, nb ir.BlockID) bool {
	if nb == ir.NoBlock || blocks.has(nb) || c.claimed[nb] || !c.blockAdmissible(nb) {
		return false
	}
	blocks.add(nb)
	defer blocks.remove(nb)
	if !c.acyclicSubgraph(blocks) || !c.leaves(blocks) {
		return false
	}
	mems, ok := c.regionMems(blocks)
	return ok && len(mems) <= c.opts.MaxMemObjects &&
		c.regionInputs(blocks, entry).Count() <= c.opts.MaxInputs
}

// formAcyclic runs the five-step acyclic formation of §4.4 at block
// granularity: seed selection, successor growth, predecessor growth,
// subordinate-path growth, and reiteration until the region stops growing.
func (c *funcCtx) formAcyclic(minWeight int64, budget int) []*Plan {
	type scored struct {
		b ir.BlockID
		s float64
	}
	var seeds []scored
	for _, blk := range c.f.Blocks {
		b := blk.ID
		if c.claimed[b] || !c.blockAdmissible(b) {
			continue
		}
		if c.prof.BlockExec(c.f.ID, b) < minWeight {
			continue
		}
		if s := c.seedScore(b); s > 0 {
			seeds = append(seeds, scored{b, s})
		}
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].s != seeds[j].s {
			return seeds[i].s > seeds[j].s
		}
		return seeds[i].b < seeds[j].b
	})

	var plans []*Plan
	for _, sd := range seeds {
		if budget == 0 {
			break
		}
		if c.claimed[sd.b] {
			continue
		}
		if p := c.growRegion(sd.b); p != nil {
			plans = append(plans, p)
			if budget > 0 {
				budget--
			}
		}
	}
	return plans
}

// growRegion grows one acyclic region from seed and finalizes it, or
// returns nil when the result fails the size, cap or weight conditions.
func (c *funcCtx) growRegion(seed ir.BlockID) *Plan {
	blocks := newBlockSet(len(c.f.Blocks))
	blocks.add(seed)
	entry := seed

	for grew := true; grew; {
		grew = false
		// Step 2: extend the principal path with likely, reusable
		// successors.
		for {
			tail := c.pathTail(blocks)
			next := ir.NoBlock
			if tail != ir.NoBlock {
				next = c.likelySucc(tail)
			}
			if next == ir.NoBlock || !c.growable(blocks, entry, next) {
				break
			}
			blocks.add(next)
			grew = true
		}
		// Step 3: extend upward through predecessors that likely flow
		// into the current entry.
		for {
			p := c.likelyPred(entry)
			if p == ir.NoBlock || !c.growable(blocks, entry, p) {
				break
			}
			// The predecessor must still expose a single starting
			// point: after adding p, every region block must be
			// reachable from p within the region.
			blocks.add(p)
			if !c.singleEntry(blocks, p) {
				blocks.remove(p)
				break
			}
			entry = p
			grew = true
		}
		// Step 4: add subordinate paths — off-path blocks whose every
		// successor rejoins the region (or its continuation), enabling
		// reuse across both arms of a hammock. Blocks are tried in
		// ascending order; one added above the current block is tried
		// in the same pass.
		for {
			added := false
			for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
				for _, s := range c.g.Succs[b] {
					if blocks.has(s) || !c.rejoins(blocks, s) {
						continue
					}
					if c.growable(blocks, entry, s) {
						blocks.add(s)
						added = true
					}
				}
			}
			if !added {
				break
			}
			grew = true
		}
	}

	cont, contW, total := c.continuation(blocks)
	if cont == ir.NoBlock {
		return nil
	}
	// Finish-probability gate: executions leaving through a side exit
	// abort memoization and reuse nothing, so a region must leave toward
	// its continuation on the clearly-likely path. Without this, blocks
	// whose hot exit is conditional form regions that mostly abort —
	// pure reuse-instruction overhead.
	if total > 0 && float64(contW) < c.opts.LikelyEdge*float64(total) {
		return nil
	}
	s, ok := c.summarize(blocks, entry, cont)
	if !ok || !c.fitsCaps(s) {
		return nil
	}
	if s.Size < c.opts.MinStaticSize {
		return nil
	}
	ids := make([]ir.BlockID, 0, blocks.count())
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		ids = append(ids, b)
		c.claimed[b] = true
	}
	return &Plan{
		Func:            c.f.ID,
		Kind:            ir.Acyclic,
		Class:           s.Class,
		Blocks:          ids,
		Entry:           entry,
		Continuation:    cont,
		Inputs:          s.Inputs,
		Outputs:         s.Outputs,
		MemObjects:      s.Mems,
		StaticSize:      s.Size,
		EstimatedWeight: c.prof.BlockExec(c.f.ID, entry),
	}
}

// pathTail returns the region block with no in-region successors along the
// likely path — the natural point to extend. With several such blocks the
// heaviest is chosen.
func (c *funcCtx) pathTail(blocks blockSet) ir.BlockID {
	best := ir.NoBlock
	var bestW int64 = -1
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		hasInner := false
		for _, s := range c.g.Succs[b] {
			if blocks.has(s) {
				hasInner = true
				break
			}
		}
		if hasInner {
			continue
		}
		if w := c.prof.BlockExec(c.f.ID, b); w > bestW || (w == bestW && b < best) {
			best, bestW = b, w
		}
	}
	return best
}

// likelyPred returns the predecessor of entry that most likely flows into
// it (edge weight ≥ LikelyEdge of the predecessor's weight), or NoBlock.
func (c *funcCtx) likelyPred(entry ir.BlockID) ir.BlockID {
	best := ir.NoBlock
	var bestW int64 = -1
	for _, p := range c.g.Preds[entry] {
		pw := c.prof.BlockExec(c.f.ID, p)
		if pw == 0 {
			continue
		}
		blk := c.f.Blocks[p]
		t := blk.Terminator()
		var ew int64
		if t != nil && t.Op.IsCondBranch() {
			ew = c.prof.EdgeWeight(c.ref(p, len(blk.Instrs)-1), t.Target == entry)
		} else {
			ew = pw
		}
		if float64(ew) < c.opts.LikelyEdge*float64(pw) {
			continue
		}
		if ew > bestW {
			best, bestW = p, ew
		}
	}
	return best
}

// singleEntry reports whether every region block is reachable from entry
// through region-internal edges (so the inception point covers the region).
func (c *funcCtx) singleEntry(blocks blockSet, entry ir.BlockID) bool {
	seen := newBlockSet(len(c.f.Blocks))
	seen.add(entry)
	stack := []ir.BlockID{entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.g.Succs[b] {
			if blocks.has(s) && !seen.has(s) {
				seen.add(s)
				stack = append(stack, s)
			}
		}
	}
	return seen.count() == blocks.count()
}

// rejoins reports whether block s flows only back into the region: every
// successor of s is a region member. (Continuation rejoining is handled by
// region growth itself; requiring full rejoin keeps subordinate paths
// conservative.)
func (c *funcCtx) rejoins(blocks blockSet, s ir.BlockID) bool {
	succs := c.g.Succs[s]
	if len(succs) == 0 {
		return false
	}
	for _, x := range succs {
		if !blocks.has(x) {
			return false
		}
	}
	return true
}
