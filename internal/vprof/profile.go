package vprof

import "ccr/internal/ir"

// Profile is the completed RPS output consumed by the region-formation
// heuristics. Instruction-level queries take ir.InstrRef positions.
type Profile struct {
	prog   *ir.Program
	exec   []int64
	taken  []int64
	values []*ValueCounter // by global instruction index
	loads  []*loadProf

	// Loops maps each profiled inner loop to its recurrence profile.
	Loops map[LoopKey]*LoopProfile

	// TotalDyn is the total dynamic instruction count of the profiled run.
	TotalDyn int64
}

// gidx converts a reference to its global instruction index.
func (p *Profile) gidx(ref ir.InstrRef) int {
	f := p.prog.Func(ref.Func)
	if f == nil {
		return -1
	}
	return int(f.InstrAddr(ref.Block, ref.Index) >> 2)
}

// counter returns the instruction's value counter, or nil if it was never
// profiled.
func (p *Profile) counter(ref ir.InstrRef) *ValueCounter {
	if g := p.gidx(ref); g >= 0 && g < len(p.values) {
		return p.values[g]
	}
	return nil
}

// Exec returns the execution count of the instruction.
func (p *Profile) Exec(ref ir.InstrRef) int64 {
	g := p.gidx(ref)
	if g < 0 || g >= len(p.exec) {
		return 0
	}
	return p.exec[g]
}

// BlockExec returns the execution count of a block (the count of its first
// instruction; empty blocks report 0).
func (p *Profile) BlockExec(f ir.FuncID, b ir.BlockID) int64 {
	return p.Exec(ir.InstrRef{Func: f, Block: b, Index: 0})
}

// Invariance returns the fraction of the instruction's executions covered
// by its k most frequent input tuples — Invariance_R[k](i)/Exec(i) of the
// paper's heuristic function (1). Instructions with no profiled values
// (immediates, address materialization) are perfectly invariant.
func (p *Profile) Invariance(ref ir.InstrRef, k int) float64 {
	c := p.counter(ref)
	if c == nil {
		in := p.prog.InstrAt(ref)
		if in != nil && (in.Op == ir.MovI || in.Op == ir.Lea || in.Op == ir.Nop) {
			return 1.0
		}
		return 0
	}
	return c.Invariance(k)
}

// Distinct returns the saturating count of distinct input tuples observed
// for the instruction (the "limited set of values" analysis of §4.4).
func (p *Profile) Distinct(ref ir.InstrRef) int {
	c := p.counter(ref)
	if c == nil {
		return 0
	}
	return c.Distinct()
}

// MemReuse returns, for a load, the fraction of executions whose referenced
// object had not been stored to since the load's previous execution —
// heuristic function (2) of §4.4. Non-load instructions report 0.
func (p *Profile) MemReuse(ref ir.InstrRef) float64 {
	var lp *loadProf
	if g := p.gidx(ref); g >= 0 && g < len(p.loads) {
		lp = p.loads[g]
	}
	if lp == nil || lp.execs == 0 {
		return 0
	}
	// A load's first execution cannot be a reuse; rate over executions.
	return float64(lp.reuses) / float64(lp.execs)
}

// TakenRatio returns the fraction of a conditional branch's executions that
// were taken.
func (p *Profile) TakenRatio(ref ir.InstrRef) float64 {
	g := p.gidx(ref)
	if g < 0 || g >= len(p.exec) || p.exec[g] == 0 {
		return 0
	}
	return float64(p.taken[g]) / float64(p.exec[g])
}

// EdgeWeight estimates the execution weight of the CFG edge leaving the
// instruction at ref toward target. For a conditional branch the taken
// count (or its complement) is used; unconditional successors inherit the
// instruction weight.
func (p *Profile) EdgeWeight(ref ir.InstrRef, taken bool) int64 {
	g := p.gidx(ref)
	if g < 0 || g >= len(p.exec) {
		return 0
	}
	in := p.prog.InstrAt(ref)
	if in == nil {
		return 0
	}
	if in.Op.IsCondBranch() {
		if taken {
			return p.taken[g]
		}
		return p.exec[g] - p.taken[g]
	}
	return p.exec[g]
}

// Loop returns the profile of the inner loop headed at (f, header), or nil.
func (p *Profile) Loop(f ir.FuncID, header ir.BlockID) *LoopProfile {
	return p.Loops[LoopKey{Func: f, Header: header}]
}
