package region

import "ccr/internal/ir"

// formCyclic selects cyclic reusable regions: inner-nested loops whose
// bodies are deterministic computation and whose profiled invocations both
// recur (> 40 % reuse opportunity) and iterate (> 60 % multi-iteration),
// per §4.4.
func (c *funcCtx) formCyclic(minWeight int64) []*Plan {
	var plans []*Plan
	for _, l := range c.loops {
		if !l.Inner() {
			continue
		}
		blocks := newBlockSet(len(c.f.Blocks))
		ok := true
		for _, b := range l.Blocks {
			if c.claimed[b] {
				ok = false
				break
			}
			blocks.add(b)
		}
		if !ok {
			continue
		}
		// Deterministic computation: every member block must be free of
		// stores, calls and non-determinable loads.
		for _, b := range l.Blocks {
			if !c.deterministicBlock(b) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		lp := c.prof.Loop(c.f.ID, l.Header)
		if lp == nil || lp.Invocations == 0 {
			continue
		}
		if lp.ReuseOpportunity() <= c.opts.CyclicReuseOpportunity {
			continue
		}
		if lp.MultiIterRatio() <= c.opts.CyclicMultiIter {
			continue
		}
		headerWeight := c.prof.BlockExec(c.f.ID, l.Header)
		if headerWeight < minWeight {
			continue
		}
		cont, _, _ := c.continuation(blocks)
		if cont == ir.NoBlock {
			continue
		}
		s, detOK := c.summarize(blocks, l.Header, cont)
		if !detOK || !c.fitsCaps(s) {
			continue
		}
		for _, b := range l.Blocks {
			c.claimed[b] = true
		}
		plans = append(plans, &Plan{
			Func:            c.f.ID,
			Kind:            ir.Cyclic,
			Class:           s.Class,
			Blocks:          append([]ir.BlockID(nil), l.Blocks...),
			Entry:           l.Header,
			Continuation:    cont,
			Inputs:          s.Inputs,
			Outputs:         s.Outputs,
			MemObjects:      s.Mems,
			StaticSize:      s.Size,
			EstimatedWeight: lp.Invocations,
		})
	}
	return plans
}

// deterministicBlock checks only the hard region-legality conditions
// (no stores, calls, returns; loads determinable), without the profile
// heuristics — cyclic regions are gated by the loop recurrence profile
// instead of per-instruction invariance.
func (c *funcCtx) deterministicBlock(b ir.BlockID) bool {
	blk := c.f.Blocks[b]
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		switch in.Op {
		case ir.St, ir.Call, ir.Ret, ir.Inval, ir.Reuse:
			return false
		case ir.Ld:
			if !in.Attr.Has(ir.AttrDeterminable) || in.Mem == ir.NoMem {
				return false
			}
		}
	}
	return true
}
