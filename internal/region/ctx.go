package region

import (
	"math/bits"
	"slices"

	"ccr/internal/analysis"
	"ccr/internal/ir"
	"ccr/internal/vprof"
)

// funcCtx bundles the per-function analyses formation consults.
type funcCtx struct {
	prog  *ir.Program
	f     *ir.Func
	g     *analysis.CFG
	dom   *analysis.DomTree
	loops []*analysis.Loop
	lv    *analysis.Liveness
	prof  *vprof.Profile
	opts  Options

	// claimed marks blocks already owned by a selected region.
	claimed []bool
	// use/def are per-block upward-exposed uses and definitions.
	use, def []analysis.RegSet
	// admissibleMemo caches blockAdmissible results.
	admissibleMemo []int8 // 0 unknown, 1 yes, -1 no

	// Scratch by block ID, reused by every candidate region: DFS colours
	// (all white between calls), outside-successor weights (-1 where
	// untouched) with the blocks they cover, and region-local live-in
	// sets (allocated on a block's first candidate).
	color  []uint8
	outW   []int64
	outs   []ir.BlockID
	liveIn []analysis.RegSet
	tmp    analysis.RegSet
}

// blockSet is a set of one function's blocks, a bit per block ID. Its
// members are visited in ascending ID order, so no region choice depends
// on iteration order.
type blockSet []uint64

func newBlockSet(n int) blockSet { return make(blockSet, (n+63)/64) }

func (s blockSet) has(b ir.BlockID) bool { return s[b>>6]&(1<<(b&63)) != 0 }
func (s blockSet) add(b ir.BlockID)      { s[b>>6] |= 1 << (b & 63) }
func (s blockSet) remove(b ir.BlockID)   { s[b>>6] &^= 1 << (b & 63) }

// next returns the least member not below b, or ir.NoBlock; members are
// visited with for b := s.next(0); b != ir.NoBlock; b = s.next(b + 1).
func (s blockSet) next(b ir.BlockID) ir.BlockID {
	w := int(b >> 6)
	if w >= len(s) {
		return ir.NoBlock
	}
	word := s[w] &^ (1<<(b&63) - 1)
	for word == 0 {
		if w++; w == len(s) {
			return ir.NoBlock
		}
		word = s[w]
	}
	return ir.BlockID(w<<6 + bits.TrailingZeros64(word))
}

func (s blockSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func newFuncCtx(prog *ir.Program, f *ir.Func, prof *vprof.Profile, opts Options) *funcCtx {
	g := analysis.BuildCFG(f)
	dom := analysis.BuildDomTree(g)
	c := &funcCtx{
		prog:           prog,
		f:              f,
		g:              g,
		dom:            dom,
		loops:          analysis.FindLoops(g, dom),
		lv:             analysis.ComputeLiveness(g),
		prof:           prof,
		opts:           opts,
		claimed:        make([]bool, len(f.Blocks)),
		use:            make([]analysis.RegSet, len(f.Blocks)),
		def:            make([]analysis.RegSet, len(f.Blocks)),
		admissibleMemo: make([]int8, len(f.Blocks)),
		color:          make([]uint8, len(f.Blocks)),
		outW:           make([]int64, len(f.Blocks)),
		liveIn:         make([]analysis.RegSet, len(f.Blocks)),
		tmp:            analysis.NewRegSet(f.NumRegs),
	}
	for b := range c.outW {
		c.outW[b] = -1
	}
	var uses []ir.Reg
	for _, b := range f.Blocks {
		u := analysis.NewRegSet(f.NumRegs)
		d := analysis.NewRegSet(f.NumRegs)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			uses = in.Uses(uses[:0])
			for _, r := range uses {
				if !d.Has(r) {
					u.Add(r)
				}
			}
			if dr := in.Def(); dr != ir.NoReg {
				d.Add(dr)
			}
		}
		c.use[b.ID] = u
		c.def[b.ID] = d
	}
	return c
}

func (c *funcCtx) ref(b ir.BlockID, i int) ir.InstrRef {
	return ir.InstrRef{Func: c.f.ID, Block: b, Index: i}
}

// trivialInvariance reports opcodes whose reuse requires no value profile:
// they always produce the same result for the same position in a path.
func trivialInvariance(op ir.Opcode) bool {
	switch op {
	case ir.MovI, ir.Lea, ir.Nop, ir.Jmp:
		return true
	}
	return false
}

// blockAdmissible reports whether every instruction of block b may live in
// a deterministic computation region and enough of them individually
// satisfy the reuse heuristics (§4.4, adapted to block granularity).
func (c *funcCtx) blockAdmissible(b ir.BlockID) bool {
	switch c.admissibleMemo[b] {
	case 1:
		return true
	case -1:
		return false
	}
	ok := c.blockAdmissibleUncached(b)
	if ok {
		c.admissibleMemo[b] = 1
	} else {
		c.admissibleMemo[b] = -1
	}
	return ok
}

func (c *funcCtx) blockAdmissibleUncached(b ir.BlockID) bool {
	blk := c.f.Blocks[b]
	reusable, judged := 0, 0
	defined := analysis.NewRegSet(c.f.NumRegs)
	var uses []ir.Reg
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		// Live-in consumer gate: the first instruction to consume each
		// upward-exposed register must itself see recurring operands,
		// or no computation instance could ever match.
		uses = in.Uses(uses[:0])
		for _, u := range uses {
			if defined.Has(u) {
				continue
			}
			defined.Add(u) // judge each live-in at its first consumer only
			if trivialInvariance(in.Op) || in.Op == ir.Ld {
				continue
			}
			if c.prof.Invariance(c.ref(b, i), c.opts.InvariantValues) < c.opts.MinLiveInInvariance {
				return false
			}
		}
		if d := in.Def(); d != ir.NoReg {
			defined.Add(d)
		}
		switch in.Op {
		case ir.St, ir.Call, ir.Ret, ir.Inval, ir.Reuse:
			// Deterministic regions may not change memory or leave the
			// function (§4.1).
			return false
		case ir.Ld:
			if !in.Attr.Has(ir.AttrDeterminable) || in.Mem == ir.NoMem {
				return false
			}
			judged++
			obj := c.prog.Object(in.Mem)
			memOK := obj.ReadOnly || c.prof.MemReuse(c.ref(b, i)) >= c.opts.Rm
			if memOK && c.prof.Invariance(c.ref(b, i), c.opts.InvariantValues) >= c.opts.R {
				reusable++
			} else if !memOK {
				// A load of unstable memory poisons the whole block:
				// its instances would be invalidated constantly.
				return false
			}
		default:
			if trivialInvariance(in.Op) {
				continue
			}
			judged++
			if c.prof.Invariance(c.ref(b, i), c.opts.InvariantValues) >= c.opts.R {
				reusable++
			}
		}
	}
	if judged == 0 {
		return true
	}
	return float64(reusable)/float64(judged) >= c.opts.BlockReusableFrac
}

// summary describes the register and memory interface of a candidate
// region.
type summary struct {
	Inputs  []ir.Reg
	Outputs []ir.Reg
	Mems    []ir.MemID
	Size    int
	Class   ir.RegionClass
}

// summarize computes the live-in, live-out and memory-object interface of
// the candidate region formed by blocks with the given entry and
// continuation. It reports ok=false when the region reads memory it may
// not (non-determinable loads).
//
// Inputs are the registers upward-exposed at the entry along region paths
// (a region-local backward dataflow, so cyclic regions account for values
// flowing around back edges). Outputs are registers defined in the region
// that are live at the continuation.
func (c *funcCtx) summarize(blocks blockSet, entry, cont ir.BlockID) (summary, bool) {
	var s summary
	var ok bool
	if s.Mems, ok = c.regionMems(blocks); !ok {
		return s, false
	}
	s.Inputs = c.regionInputs(blocks, entry).Members()
	defs := c.tmp
	defs.Clear()
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		defs.Union(c.def[b])
		s.Size += len(c.f.Blocks[b].Instrs)
	}
	outs := make([]ir.Reg, 0, 8)
	for _, r := range c.lv.LiveIn[cont].Members() {
		if defs.Has(r) {
			outs = append(outs, r)
		}
	}
	s.Outputs = outs
	if len(s.Mems) == 0 {
		s.Class = ir.Stateless
	} else {
		s.Class = ir.MemoryDependent
	}
	return s, true
}

// regionInputs returns the registers upward-exposed at entry along paths
// through blocks: a region-local backward dataflow over c.liveIn, so the
// set is valid until the next call.
func (c *funcCtx) regionInputs(blocks blockSet, entry ir.BlockID) analysis.RegSet {
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		if c.liveIn[b] == nil {
			c.liveIn[b] = analysis.NewRegSet(c.f.NumRegs)
		} else {
			c.liveIn[b].Clear()
		}
	}
	tmp := c.tmp
	for changed := true; changed; {
		changed = false
		for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
			tmp.Clear()
			for _, succ := range c.g.Succs[b] {
				if blocks.has(succ) {
					tmp.Union(c.liveIn[succ])
				}
			}
			tmp.Subtract(c.def[b])
			tmp.Union(c.use[b])
			if !tmp.Equal(c.liveIn[b]) {
				c.liveIn[b].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return c.liveIn[entry]
}

// regionMems returns the distinguishable memory objects the loads of
// blocks read, in block and instruction order, or ok=false when a load
// is not determinable.
func (c *funcCtx) regionMems(blocks blockSet) (mems []ir.MemID, ok bool) {
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		blk := c.f.Blocks[b]
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op != ir.Ld {
				continue
			}
			if !in.Attr.Has(ir.AttrDeterminable) || in.Mem == ir.NoMem {
				return nil, false
			}
			if c.prog.Object(in.Mem).ReadOnly {
				// Static data needs no validation (§2.2's bit_count
				// array): it does not count as a distinguishable
				// memory dependence.
				continue
			}
			if !slices.Contains(mems, in.Mem) {
				mems = append(mems, in.Mem)
			}
		}
	}
	return mems, true
}

// fitsCaps checks the bank-size and accordance limits.
func (c *funcCtx) fitsCaps(s summary) bool {
	return len(s.Inputs) <= c.opts.MaxInputs &&
		len(s.Outputs) <= c.opts.MaxOutputs &&
		len(s.Mems) <= c.opts.MaxMemObjects
}

// acyclicSubgraph reports whether the region subgraph restricted to blocks
// has no cycles.
func (c *funcCtx) acyclicSubgraph(blocks blockSet) bool {
	ok := true
	for b := blocks.next(0); ok && b != ir.NoBlock; b = blocks.next(b + 1) {
		if c.color[b] == white {
			ok = c.acyclicFrom(blocks, b)
		}
	}
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		c.color[b] = white
	}
	return ok
}

// DFS colours of acyclicSubgraph.
const (
	white = iota
	grey
	black
)

// acyclicFrom runs acyclicSubgraph's depth-first search from b, reporting
// false when it meets a grey block (a back edge).
func (c *funcCtx) acyclicFrom(blocks blockSet, b ir.BlockID) bool {
	c.color[b] = grey
	for _, s := range c.g.Succs[b] {
		if !blocks.has(s) {
			continue
		}
		switch c.color[s] {
		case grey:
			return false
		case white:
			if !c.acyclicFrom(blocks, s) {
				return false
			}
		}
	}
	c.color[b] = black
	return true
}

// continuation picks the region's continuation: of the blocks outside the
// region that region blocks branch or fall through to, the one with the
// highest total profiled edge weight into it, the lowest ID on ties. It
// returns that block (ir.NoBlock when no edge leaves the region), its
// weight and the total weight of every edge leaving the region.
func (c *funcCtx) continuation(blocks blockSet) (best ir.BlockID, bestW, total int64) {
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		blk := c.f.Blocks[b]
		t := blk.Terminator()
		for _, succ := range c.g.Succs[b] {
			if blocks.has(succ) {
				continue
			}
			var w int64
			switch {
			case t != nil && t.Op.IsCondBranch():
				taken := t.Target == succ
				w = c.prof.EdgeWeight(c.ref(b, len(blk.Instrs)-1), taken)
			default:
				w = c.prof.BlockExec(c.f.ID, b)
			}
			if c.outW[succ] < 0 {
				c.outW[succ] = 0
				c.outs = append(c.outs, succ)
			}
			c.outW[succ] += w
		}
	}
	best, bestW = ir.NoBlock, -1
	for _, b := range c.outs {
		w := c.outW[b]
		total += w
		if w > bestW || (w == bestW && b < best) {
			best, bestW = b, w
		}
		c.outW[b] = -1
	}
	c.outs = c.outs[:0]
	return best, bestW, total
}

// leaves reports whether an edge leaves the region, that is, whether it
// has a continuation.
func (c *funcCtx) leaves(blocks blockSet) bool {
	for b := blocks.next(0); b != ir.NoBlock; b = blocks.next(b + 1) {
		for _, succ := range c.g.Succs[b] {
			if !blocks.has(succ) {
				return true
			}
		}
	}
	return false
}
