package emu

// This file is the predecoded execution engine: the default Machine.Run
// path. It executes the flat ir.DecodedProgram form — one dense PInstr
// array per function, branch targets as flat PCs, object bounds folded in
// — so the hot path is a switch over a contiguous stream with no
// block/index bookkeeping, no InstrAddr arithmetic (byte addresses are
// Base + 4*pc), and no heap traffic: frames and register files come from
// the machine's pools and the shared Event value in Machine.ev is reused
// for every emission. With no tracer attached and no CRB the loop
// performs zero allocations per run (pinned by TestRunAllocs).
//
// The engine is two-tier:
//
//   - The *batch* tier runs whenever execution is untraced: no tracer
//     (a Machine.OnRun hook, fed once per run, and a Machine.Digest,
//     folded inline, are fine), no active memoization, and the function
//     has an XCode (operand-shape specialized batch form, see
//     ir.batchDecode). Its loop carries no per-instruction statistics at
//     all: the instruction budget is charged per straight-line *run* on
//     entry (rem -= RunEnd[pc]-pc+1) and entry
//     counts per PC are accumulated in Machine.entryCnt, from which
//     flushOpCounts reconstructs the exact Stats.ByOp/Branches histogram
//     at every exit. Register files are indexed through a *[RegFileCap]
//     array view with uint8 register numbers, so the ALU cases compile to
//     bounds-check-free loads and stores. Eligible adjacent pairs in XCode
//     are rewritten in place into fused superinstructions (ir.fuseXCode,
//     DESIGN.md §15) that the loop executes in one dispatch; fusion never
//     pairs across a run-entry PC, so PCs, budget charging and the per-run
//     histograms stay in architectural instructions. Straight-line arms
//     fall out of the dispatch switch into one shared tail and control
//     arms jump to another (transfer), so digest support costs an
//     undigested run one nil test per straight-line dispatch: the tail
//     branches to a shared fold (foldDest, foldZero, foldPair) only when
//     a digest is attached, and the run-ending transfer folds beside the
//     run feed (batchTransfer).
//   - The *careful* tier is the original instruction-at-a-time loop with
//     full per-instruction accounting; it is authoritative for tracing,
//     memoization recording, the limit endgame (where a whole run no
//     longer fits in the budget), and functions whose shape the batch
//     decoder rejects.
//     It executes one straight-line run at a time and returns to the
//     tier dispatch at every control transfer, so batch
//     execution resumes as soon as the observable condition (an armed
//     memo, typically) has passed.
//
// Both tiers fold an attached digest inline, at the points where the
// careful tier would call a tracer and with no Event built: each executed
// instruction's address, result and taken target, every store, and every
// ret (synthesized ones for function-level reuse hits included). A fused
// pair folds both slots, the first before the second can fault or jump; a
// faulting instruction, the sentinel and a DTM replay fold nothing. Both
// tiers must stay bit-identical to the reference interpreter in
// machine.go (runInterp) under the internal/oracle digest, trace stream
// included. The subtle equivalences they rely on:
//
//   - blocks are laid out contiguously in block order, so the flat
//     successor pc+1 is exactly the interpreter's iterative fall-through
//     (empty blocks contribute no code on either form), and the byte
//     address of flat PC p is Base + 4*p at every position, including
//     one-past-the-end-of-a-block fall-through slots;
//   - the sentinel slot (ir.OpSentinel) after the last real instruction
//     absorbs both fall-off-the-end and unresolvable branch targets; it is
//     detected *before* the limit check, matching the interpreter's
//     fall-through normalization order, and is never counted as an
//     executed instruction;
//   - per-run budget charging is exact because every execution entering at
//     pc executes precisely the instructions [pc, RunEnd[pc]] before
//     transferring control; the fault paths that abandon a pre-charged run
//     midway (Ld/St bounds faults, the sentinel) refund the tail and log a
//     byCorr range so the histogram stays exact;
//   - memoStep must see the *pre-normalized* successor position — the
//     (block, index+1) slot or the raw branch target — because the
//     interpreter normalizes at most one block forward; the careful tier
//     therefore derives that pair from the PInstr's CFG coordinates
//     instead of the flat successor;
//   - the call event carries the callee's register file and the return
//     event the returning frame's, exactly as the interpreter emits them;
//   - the dynamic instruction count lives in a countdown register (rem)
//     and is folded back into Stats.DynInstrs at every point that can
//     observe it: reuse execution, returns, trace emission, and run exit.
//     In batch mode the charge is "through the end of the current run",
//     which at every sync point (Reuse, Ret — both run enders) equals the
//     interpreter's count through the current instruction.

import (
	"fmt"

	"ccr/internal/ir"
)

// fframe is one call-stack frame of the predecoded engine.
type fframe struct {
	df      *ir.DecodedFunc
	regs    []int64
	pc      int // resume PC while a callee is active
	retDest ir.Reg
}

func (m *Machine) pushFFrame(df *ir.DecodedFunc, retDest ir.Reg) *fframe {
	regs := m.newRegs(df.Fn.NumRegs + 1)
	m.fframes = append(m.fframes, fframe{df: df, regs: regs, retDest: retDest})
	return &m.fframes[len(m.fframes)-1]
}

func (m *Machine) popFFrame() {
	fr := &m.fframes[len(m.fframes)-1]
	m.regPool = append(m.regPool, fr.regs)
	fr.regs = nil
	m.fframes = m.fframes[:len(m.fframes)-1]
}

// emitFlat builds the trace event for the instruction at flat PC pc of df.
// regs is the register file the event exposes (the callee's for Call, the
// executing frame's otherwise).
func (m *Machine) emitFlat(trace Tracer, df *ir.DecodedFunc, pc int, in *ir.PInstr, mt *ir.PMeta,
	v1, v2, addr, result int64, taken bool, tpc int64, regs []int64) {
	// Every field is assigned in place: a composite-literal assignment
	// builds a temporary and block-copies it, per traced instruction.
	ev := &m.ev
	ev.Func, ev.Block, ev.Index, ev.Instr = df.Fn, mt.Block, int(mt.Index), mt.Src
	ev.PC = df.Addr(int32(pc))
	ev.Regs = regs
	ev.Val1, ev.Val2, ev.Addr, ev.Result = v1, v2, addr, result
	ev.Taken, ev.TargetPC = taken, tpc
	ev.ReuseHit, ev.ReuseOut, ev.ReusedInstrs = false, 0, 0
	ev.InvalCount = 0
	if in.Op == ir.Inval {
		ev.InvalCount = m.lastInval
	}
	trace(ev)
}

// batchFault finalizes a fault raised at flat PC pc of a pre-charged batch
// run: the tail (pc, RunEnd[pc]] was charged but never executed, so it is
// refunded from rem and subtracted from the histogram, while pc itself
// stays counted (the interpreter counts the faulting instruction). The
// run's executed prefix goes to the run hook.
func (m *Machine) batchFault(df *ir.DecodedFunc, pc int, rem *int64, limit int64, msg string) (int64, error) {
	m.feedPrefix(df, pc)
	re := df.RunEnd[pc]
	*rem += int64(re - int32(pc))
	m.Stats.DynInstrs = limit - *rem
	if int32(pc)+1 <= re {
		m.byCorr = append(m.byCorr, opCorr{df.Fn.ID, int32(pc) + 1, re})
	}
	m.flushOpCounts()
	mt := &df.Meta[pc]
	return 0, &Fault{df.Fn.Name, mt.Block, int(mt.Index), msg}
}

// batchTransfer passes the control transfer at pc, dispatched as xop,
// that ended a batch run to the run hook and the digest; npc is its
// successor and rp the frame's registers. The batch loop keeps no
// per-instruction taken bit: a conditional branch, the run's only one,
// was taken exactly when it counted a taken branch since the run began.
func (m *Machine) batchTransfer(df *ir.DecodedFunc, pc int, xop uint8, npc int, rp *[ir.RegFileCap]int64) {
	var taken bool
	switch xop {
	case ir.XReuse:
		taken = m.run.ReuseHit
	case ir.XJmp, ir.XFAddIJmp:
		taken = true
	default:
		taken = m.Stats.TakenBranches != m.seg.taken0
	}
	if m.OnRun != nil {
		m.feedRun(df, pc, taken)
	}
	if d := m.Digest; d != nil {
		if xop == ir.XFAddIJmp {
			// The add fused ahead of the jump slot.
			d.instr(df.Addr(int32(pc-1)), rp[df.XCode[pc-1].Dest], false, 0)
		}
		d.instr(df.Addr(int32(pc)), 0, taken, df.Addr(int32(npc)))
		if xop == ir.XReuse && taken {
			m.digestReuse(ir.RegionID(df.XCode[pc].ObjLo), rp[:])
		}
	}
}

// retTarget is the byte address the ret of the innermost frame returns
// to, or 0 for a ret from main.
func (m *Machine) retTarget() int64 {
	if len(m.fframes) < 2 {
		return 0
	}
	p := &m.fframes[len(m.fframes)-2]
	return p.df.Addr(int32(p.pc))
}

// runFast executes main over the predecoded program form.
func (m *Machine) runFast(args []int64) (int64, error) {
	dec := m.dec
	fr := m.pushFFrame(dec.Funcs[m.Prog.Main], ir.NoReg)
	for i, a := range args {
		fr.regs[i+1] = a
	}
	limit := m.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	trace := m.Trace
	digest := m.Digest
	dtm := m.DTM
	mem := m.Mem
	if dtm != nil {
		m.ensureDTMElig()
	}
	if m.OnRun != nil {
		m.prepareFeed()
	}

	// Hot state hoisted out of the frame, reloaded after call/return. The
	// instruction budget counts down in rem; Stats.DynInstrs is restored
	// as limit-rem wherever it can be observed.
	df := fr.df
	pc := 0
	rem := limit - m.Stats.DynInstrs
	byOp := &m.Stats.ByOp

outer:
	for {
		// ---- trace-memoization landing hook ----------------------------
		// Every arrival here is a landing (branch, jump, call, return or
		// reuse transfer). With DTM attached the batch tier returns here at
		// every control transfer, except to a statically ineligible head
		// while nothing is armed (the headEligible skip, where the hook is a
		// proven no-op). The armed-memo gate matches the interpreter: the
		// careful recording path owns execution inside a region body.
		if dtm != nil && !m.memo.active {
			m.Stats.DynInstrs = limit - rem
			npc, err := m.dtmEnter(df, pc, fr.regs, limit)
			if err != nil {
				m.flushOpCounts()
				return 0, err
			}
			pc = npc
			rem = limit - m.Stats.DynInstrs
		}

		// ---- batch tier ------------------------------------------------
		// Eligible only when execution is untraced (no tracer, no armed
		// memo; a run hook sees whole runs and a digest is folded in the
		// loop) and the function has a batch form. The run containing pc
		// is charged up front; if it doesn't fit in the budget the careful
		// tier below takes over and finds the exact ErrLimit point.
		if trace == nil && !m.memo.active && df.XCode != nil {
			xcode := df.XCode
			runEnd := df.RunEnd
			cnt := m.entryCnt[df.Fn.ID]
			rp := (*[ir.RegFileCap]int64)(fr.regs[:ir.RegFileCap])
			var elig []bool
			if m.dtmElig != nil {
				elig = m.dtmElig[df.Fn.ID]
			}
		charge:
			for {
				k := int64(runEnd[pc]-int32(pc)) + 1
				if rem < k {
					// The run no longer fits: the careful tier owns the
					// limit endgame.
					break charge
				}
				rem -= k
				cnt[pc]++
				if m.OnRun != nil || digest != nil {
					// The run hook's record of this run, and the taken bit
					// of its ending branch, start here.
					m.seg.start, m.seg.na, m.seg.taken0 = pc, 0, m.Stats.TakenBranches
				}
				for {
					in := &xcode[pc]
					var npc int
					var r1 int64 // a fused pair's first result, for foldPair
					switch in.XOp {
					case ir.XNop:
						if digest != nil {
							goto foldZero
						}
						pc++
						continue
					case ir.XMovR:
						rp[in.Dest] = rp[in.Src1]
					case ir.XMovI:
						rp[in.Dest] = in.Imm
					case ir.XLeaR:
						rp[in.Dest] = in.Imm + rp[in.Src1]
					case ir.XLeaI:
						rp[in.Dest] = in.Imm
					case ir.XAddRR:
						rp[in.Dest] = rp[in.Src1] + rp[in.Src2]
					case ir.XAddRI:
						rp[in.Dest] = rp[in.Src1] + in.Imm
					case ir.XSubRR:
						rp[in.Dest] = rp[in.Src1] - rp[in.Src2]
					case ir.XSubRI:
						rp[in.Dest] = rp[in.Src1] - in.Imm
					case ir.XMulRR:
						rp[in.Dest] = rp[in.Src1] * rp[in.Src2]
					case ir.XMulRI:
						rp[in.Dest] = rp[in.Src1] * in.Imm
					case ir.XDivRR:
						var r int64
						if d := rp[in.Src2]; d != 0 {
							r = rp[in.Src1] / d
						}
						rp[in.Dest] = r
					case ir.XDivRI:
						var r int64
						if in.Imm != 0 {
							r = rp[in.Src1] / in.Imm
						}
						rp[in.Dest] = r
					case ir.XRemRR:
						var r int64
						if d := rp[in.Src2]; d != 0 {
							r = rp[in.Src1] % d
						}
						rp[in.Dest] = r
					case ir.XRemRI:
						var r int64
						if in.Imm != 0 {
							r = rp[in.Src1] % in.Imm
						}
						rp[in.Dest] = r
					case ir.XAndRR:
						rp[in.Dest] = rp[in.Src1] & rp[in.Src2]
					case ir.XAndRI:
						rp[in.Dest] = rp[in.Src1] & in.Imm
					case ir.XOrRR:
						rp[in.Dest] = rp[in.Src1] | rp[in.Src2]
					case ir.XOrRI:
						rp[in.Dest] = rp[in.Src1] | in.Imm
					case ir.XXorRR:
						rp[in.Dest] = rp[in.Src1] ^ rp[in.Src2]
					case ir.XXorRI:
						rp[in.Dest] = rp[in.Src1] ^ in.Imm
					case ir.XShlRR:
						rp[in.Dest] = rp[in.Src1] << (uint64(rp[in.Src2]) & 63)
					case ir.XShlRI:
						rp[in.Dest] = rp[in.Src1] << (uint64(in.Imm) & 63)
					case ir.XShrRR:
						rp[in.Dest] = int64(uint64(rp[in.Src1]) >> (uint64(rp[in.Src2]) & 63))
					case ir.XShrRI:
						rp[in.Dest] = int64(uint64(rp[in.Src1]) >> (uint64(in.Imm) & 63))
					case ir.XSraRR:
						rp[in.Dest] = rp[in.Src1] >> (uint64(rp[in.Src2]) & 63)
					case ir.XSraRI:
						rp[in.Dest] = rp[in.Src1] >> (uint64(in.Imm) & 63)
					case ir.XSltRR:
						rp[in.Dest] = b2i(rp[in.Src1] < rp[in.Src2])
					case ir.XSltRI:
						rp[in.Dest] = b2i(rp[in.Src1] < in.Imm)
					case ir.XSleRR:
						rp[in.Dest] = b2i(rp[in.Src1] <= rp[in.Src2])
					case ir.XSleRI:
						rp[in.Dest] = b2i(rp[in.Src1] <= in.Imm)
					case ir.XSeqRR:
						rp[in.Dest] = b2i(rp[in.Src1] == rp[in.Src2])
					case ir.XSeqRI:
						rp[in.Dest] = b2i(rp[in.Src1] == in.Imm)
					case ir.XSneRR:
						rp[in.Dest] = b2i(rp[in.Src1] != rp[in.Src2])
					case ir.XSneRI:
						rp[in.Dest] = b2i(rp[in.Src1] != in.Imm)
					case ir.XLd:
						a := rp[in.Src1] + in.Imm
						if uint64(a) >= uint64(len(mem)) {
							return m.batchFault(df, pc, &rem, limit,
								fmt.Sprintf("load address %d out of range", a))
						}
						if in.ObjHi >= 0 && (a < in.ObjLo || a >= in.ObjHi) {
							o := m.Prog.Objects[df.Code[pc].Aux]
							return m.batchFault(df, pc, &rem, limit,
								fmt.Sprintf("load address %d outside hinted object %s [%d,%d)", a, o.Name, o.Base, o.Base+o.Size))
						}
						rp[in.Dest] = mem[a]
						if m.OnRun != nil {
							m.noteAddr(a)
						}
					case ir.XSt:
						a := rp[in.Src1] + in.Imm
						if uint64(a) >= uint64(len(mem)) {
							return m.batchFault(df, pc, &rem, limit,
								fmt.Sprintf("store address %d out of range", a))
						}
						if in.ObjHi >= 0 && (a < in.ObjLo || a >= in.ObjHi) {
							o := m.Prog.Objects[df.Code[pc].Aux]
							return m.batchFault(df, pc, &rem, limit,
								fmt.Sprintf("store address %d outside hinted object %s [%d,%d)", a, o.Name, o.Base, o.Base+o.Size))
						}
						mem[a] = rp[in.Src2]
						if m.OnRun != nil {
							m.noteAddr(a)
						}
						if dtm != nil {
							dtm.Store(ir.MemID(df.Code[pc].Aux))
						}
						if len(m.funcMemos) > 0 {
							m.dropFuncMemos()
						}
						if digest != nil {
							digest.store(a, mem[a])
							goto foldZero
						}
						pc++
						continue
					// ---- fused superinstructions -----------------------
					// Each XF case executes the adjacent pair (pc, pc+1)
					// in one dispatch; the second slot keeps its original
					// encoding and is read directly (fusion never pairs
					// across a run-entry PC, so no walk can land on it).
					case ir.XFShlIAdd:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] << (uint64(in.Imm) & 63)
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] + rp[in2.Src2]
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFShrIAndI:
						in2 := &xcode[pc+1]
						r1 = int64(uint64(rp[in.Src1]) >> (uint64(in.Imm) & 63))
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] & in2.Imm
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFSraIAndI:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] >> (uint64(in.Imm) & 63)
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] & in2.Imm
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFMulIAddI:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] * in.Imm
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] + in2.Imm
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFXorShlI:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] ^ rp[in.Src2]
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] << (uint64(in2.Imm) & 63)
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFXorIAdd:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] ^ in.Imm
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] + rp[in2.Src2]
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFAddMulI:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] + rp[in.Src2]
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] * in2.Imm
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFAddAdd:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] + rp[in.Src2]
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] + rp[in2.Src2]
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFAddAddI:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] + rp[in.Src2]
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] + in2.Imm
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFAddAndI:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] + rp[in.Src2]
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] & in2.Imm
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFAddXor:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] + rp[in.Src2]
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] ^ rp[in2.Src2]
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFAndILeaR:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] & in.Imm
						rp[in.Dest] = r1
						rp[in2.Dest] = in2.Imm + rp[in2.Src1]
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFShlIXor:
						in2 := &xcode[pc+1]
						r1 = rp[in.Src1] << (uint64(in.Imm) & 63)
						rp[in.Dest] = r1
						rp[in2.Dest] = rp[in2.Src1] ^ rp[in2.Src2]
						if digest != nil {
							goto foldPair
						}
						pc += 2
						continue
					case ir.XFAddLd:
						in2 := &xcode[pc+1]
						rp[in.Dest] = rp[in.Src1] + rp[in.Src2]
						if digest != nil {
							// The add is folded before the load can fault.
							digest.instr(df.Addr(int32(pc)), rp[in.Dest], false, 0)
						}
						a := rp[in2.Src1] + in2.Imm
						if uint64(a) >= uint64(len(mem)) {
							return m.batchFault(df, pc+1, &rem, limit,
								fmt.Sprintf("load address %d out of range", a))
						}
						if in2.ObjHi >= 0 && (a < in2.ObjLo || a >= in2.ObjHi) {
							o := m.Prog.Objects[df.Code[pc+1].Aux]
							return m.batchFault(df, pc+1, &rem, limit,
								fmt.Sprintf("load address %d outside hinted object %s [%d,%d)", a, o.Name, o.Base, o.Base+o.Size))
						}
						rp[in2.Dest] = mem[a]
						if m.OnRun != nil {
							m.noteAddr(a)
						}
						if digest != nil {
							pc++
							goto foldDest
						}
						pc += 2
						continue
					case ir.XFAddIJmp:
						rp[in.Dest] = rp[in.Src1] + in.Imm
						pc++ // the jump slot ends the run
						npc = int(xcode[pc].Target)
						goto transfer
					case ir.XJmp:
						npc = int(in.Target)
						goto transfer
					case ir.XBeqRR:
						if rp[in.Src1] == rp[in.Src2] {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBeqRI:
						if rp[in.Src1] == in.Imm {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBneRR:
						if rp[in.Src1] != rp[in.Src2] {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBneRI:
						if rp[in.Src1] != in.Imm {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBltRR:
						if rp[in.Src1] < rp[in.Src2] {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBltRI:
						if rp[in.Src1] < in.Imm {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBgeRR:
						if rp[in.Src1] >= rp[in.Src2] {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBgeRI:
						if rp[in.Src1] >= in.Imm {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBleRR:
						if rp[in.Src1] <= rp[in.Src2] {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBleRI:
						if rp[in.Src1] <= in.Imm {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBgtRR:
						if rp[in.Src1] > rp[in.Src2] {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XBgtRI:
						if rp[in.Src1] > in.Imm {
							m.Stats.TakenBranches++
							npc = int(in.Target)
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XCall:
						if m.OnRun != nil {
							m.feedRun(df, pc, true)
						}
						cdf := dec.Funcs[in.ObjLo]
						fr.pc = pc + 1 // return point; set before push (append may move frames)
						nf := m.pushFFrame(cdf, ir.Reg(in.Dest))
						caller := &m.fframes[len(m.fframes)-2]
						for i, a := range df.Meta[pc].Src.Args {
							nf.regs[i+1] = caller.regs[a]
						}
						if digest != nil {
							digest.instr(df.Addr(int32(pc)), 0, true, cdf.Base)
						}
						fr = nf
						df = cdf
						pc = 0
						continue outer
					case ir.XRetR, ir.XRetI:
						m.Stats.DynInstrs = limit - rem
						retVal := in.Imm
						if in.XOp == ir.XRetR {
							retVal = rp[in.Src1]
						}
						if digest != nil {
							m.digestRet(df, pc, retVal)
						}
						if m.OnRun != nil {
							m.feedRun(df, pc, true)
						}
						dest := fr.retDest
						m.popFFrame()
						if len(m.funcMemos) > 0 {
							m.commitFuncMemos(retVal, len(m.fframes))
						}
						if len(m.fframes) == 0 {
							m.flushOpCounts()
							return retVal, nil
						}
						fr = &m.fframes[len(m.fframes)-1]
						if dest != ir.NoReg {
							fr.regs[dest] = retVal
						}
						df = fr.df
						pc = fr.pc
						continue outer
					case ir.XReuse:
						m.Stats.DynInstrs = limit - rem
						hit, rout, reused := m.execReuse(ir.RegionID(in.ObjLo), fr.regs, df.Fn.NumRegs, len(m.fframes))
						m.run.ReuseHit, m.run.ReuseOut, m.run.ReusedInstrs = hit, rout, reused
						if hit {
							npc = int(in.Target)
						} else if m.memo.active {
							// The miss armed recording; the careful tier
							// owns the region body.
							if m.OnRun != nil {
								m.feedRun(df, pc, false)
							}
							if digest != nil {
								digest.instr(df.Addr(int32(pc)), 0, false, 0)
							}
							pc++
							continue outer
						} else {
							npc = pc + 1
						}
						goto transfer
					case ir.XInval:
						m.Stats.Invalidations++
						m.lastInval = 0
						if m.CRB != nil {
							m.lastInval = m.CRB.Invalidate(ir.MemID(in.ObjLo))
						}
						if len(m.funcMemos) > 0 {
							m.dropFuncMemos()
						}
						if digest != nil {
							goto foldZero
						}
						pc++
						continue
					case ir.XEnd:
						// The sentinel is not an executed instruction:
						// refund its pre-charge before faulting.
						m.feedPrefix(df, pc)
						rem++
						m.Stats.DynInstrs = limit - rem
						m.byCorr = append(m.byCorr, opCorr{df.Fn.ID, int32(pc), int32(pc)})
						m.flushOpCounts()
						return 0, &Fault{df.Fn.Name, ir.BlockID(len(df.Fn.Blocks)), 0, "fell off end of function"}
					default:
						// XBad never survives batchDecode; defensive only.
						return m.batchFault(df, pc, &rem, limit,
							fmt.Sprintf("invalid opcode %d", df.Code[pc].Op))
					}
					// A straight-line arm fell out of the switch: the
					// instruction's result, if any, is in its destination
					// register.
					if digest != nil {
						goto foldDest
					}
					pc++
					continue

				transfer:
					// Control transferred: pc is the run's last instruction.
					if m.OnRun != nil || digest != nil {
						m.batchTransfer(df, pc, in.XOp, npc, rp)
					}
					// With DTM attached a transfer is
					// a landing: return to the tier dispatch so the hook
					// above runs — unless nothing is armed and the landing
					// head is statically ineligible, making the hook a
					// proven no-op; then (as with no DTM at all) loop back
					// to charge the next run, or hand the endgame to the
					// careful tier when it no longer fits.
					if dtm != nil && (m.dtmArmed || elig == nil || elig[npc]) {
						pc = npc
						continue outer
					}
					pc = npc
					continue charge

					// Digest folds of the straight-line instruction at pc,
					// reached only with a digest attached: its result is in its
					// destination register, or in r1 for a fused pair's first
					// slot (foldPair then falls into foldDest for the second);
					// Nop, St and Inval fold a zero result.
				foldPair:
					digest.instr(df.Addr(int32(pc)), r1, false, 0)
					pc++
				foldDest:
					digest.instr(df.Addr(int32(pc)), rp[xcode[pc].Dest], false, 0)
					pc++
					continue
				foldZero:
					digest.instr(df.Addr(int32(pc)), 0, false, 0)
					pc++
					continue
				}
			}
		}

		// ---- careful tier ----------------------------------------------
		// One straight-line run at a time, with full per-instruction
		// accounting; control transfers return to the tier dispatch above.
		code := df.Code
		meta := df.Meta
		regs := fr.regs
		if m.OnRun != nil {
			m.seg.start, m.seg.na = pc, 0
		}
		for {
			// The sentinel slot is the last element of Code; reaching it
			// (by fall-through or an unresolvable branch target) is the
			// fell-off-the-end fault, detected before the limit check to
			// match the interpreter's normalization order.
			if uint(pc) >= uint(len(code)-1) {
				m.Stats.DynInstrs = limit - rem
				m.flushOpCounts()
				m.feedPrefix(df, pc)
				return 0, &Fault{df.Fn.Name, ir.BlockID(len(df.Fn.Blocks)), 0, "fell off end of function"}
			}
			in := &code[pc]
			if rem <= 0 {
				m.Stats.DynInstrs = limit - rem
				m.flushOpCounts()
				m.feedPrefix(df, pc)
				return 0, ErrLimit
			}
			rem--
			byOp[in.Op]++

			var result, addr int64
			taken := false
			ctrl := false // ends the current straight-line run
			nextPC := pc + 1

			// Unconditional operand loads (register 0 always exists), then a
			// branchless select: NoReg means 0 for Src1 and the immediate for
			// Src2, exactly as the interpreter resolves operands.
			v1 := regs[in.Src1]
			if in.Src1 == ir.NoReg {
				v1 = 0
			}
			v2 := regs[in.Src2]
			if in.Src2 == ir.NoReg {
				v2 = in.Imm
			}

			memoActive := m.memo.active
			if memoActive {
				// Record first-use inputs before any definition below.
				ok := true
				switch in.Op {
				case ir.Call:
					for _, a := range meta[pc].Src.Args {
						ok = ok && m.memo.noteUse(a, regs[a])
					}
				default:
					if in.Src1 != ir.NoReg {
						ok = m.memo.noteUse(in.Src1, v1)
					}
					if ok && in.Src2 != ir.NoReg {
						ok = m.memo.noteUse(in.Src2, v2)
					}
				}
				if !ok {
					m.abortMemo()
					memoActive = false
				}
			}

			switch in.Op {
			case ir.Nop:
			case ir.Mov:
				result = v1
				regs[in.Dest] = result
			case ir.MovI:
				result = in.Imm
				regs[in.Dest] = result
			case ir.Lea:
				result = in.ObjLo + in.Imm
				if in.Src1 != ir.NoReg {
					result += v1
				}
				regs[in.Dest] = result
			case ir.Add:
				result = v1 + v2
				regs[in.Dest] = result
			case ir.Sub:
				result = v1 - v2
				regs[in.Dest] = result
			case ir.Mul:
				result = v1 * v2
				regs[in.Dest] = result
			case ir.Div:
				if v2 != 0 {
					result = v1 / v2
				}
				regs[in.Dest] = result
			case ir.Rem:
				if v2 != 0 {
					result = v1 % v2
				}
				regs[in.Dest] = result
			case ir.And:
				result = v1 & v2
				regs[in.Dest] = result
			case ir.Or:
				result = v1 | v2
				regs[in.Dest] = result
			case ir.Xor:
				result = v1 ^ v2
				regs[in.Dest] = result
			case ir.Shl:
				result = v1 << (uint64(v2) & 63)
				regs[in.Dest] = result
			case ir.Shr:
				result = int64(uint64(v1) >> (uint64(v2) & 63))
				regs[in.Dest] = result
			case ir.Sra:
				result = v1 >> (uint64(v2) & 63)
				regs[in.Dest] = result
			case ir.Slt:
				result = b2i(v1 < v2)
				regs[in.Dest] = result
			case ir.Sle:
				result = b2i(v1 <= v2)
				regs[in.Dest] = result
			case ir.Seq:
				result = b2i(v1 == v2)
				regs[in.Dest] = result
			case ir.Sne:
				result = b2i(v1 != v2)
				regs[in.Dest] = result
			case ir.Ld:
				addr = v1 + in.Imm
				if uint64(addr) >= uint64(len(mem)) {
					m.Stats.DynInstrs = limit - rem
					m.flushOpCounts()
					m.feedPrefix(df, pc)
					return 0, &Fault{df.Fn.Name, meta[pc].Block, int(meta[pc].Index),
						fmt.Sprintf("load address %d out of range", addr)}
				}
				if in.ObjHi >= 0 && (addr < in.ObjLo || addr >= in.ObjHi) {
					m.Stats.DynInstrs = limit - rem
					m.flushOpCounts()
					m.feedPrefix(df, pc)
					o := m.Prog.Objects[in.Aux]
					return 0, &Fault{df.Fn.Name, meta[pc].Block, int(meta[pc].Index),
						fmt.Sprintf("load address %d outside hinted object %s [%d,%d)", addr, o.Name, o.Base, o.Base+o.Size)}
				}
				result = mem[addr]
				regs[in.Dest] = result
				if m.OnRun != nil {
					m.noteAddr(addr)
				}
				if memoActive {
					// Loads of writable objects make the instance depend on
					// memory state; static (read-only) data needs no
					// validation. A load with unknown provenance cannot be
					// inside a compiler-formed region — abort defensively.
					switch {
					case ir.MemID(in.Aux) == ir.NoMem:
						m.abortMemo()
						memoActive = false
					case !m.readOnly[in.Aux]:
						m.memo.usesMem = true
					}
				}
			case ir.St:
				addr = v1 + in.Imm
				if uint64(addr) >= uint64(len(mem)) {
					m.Stats.DynInstrs = limit - rem
					m.flushOpCounts()
					m.feedPrefix(df, pc)
					return 0, &Fault{df.Fn.Name, meta[pc].Block, int(meta[pc].Index),
						fmt.Sprintf("store address %d out of range", addr)}
				}
				if in.ObjHi >= 0 && (addr < in.ObjLo || addr >= in.ObjHi) {
					m.Stats.DynInstrs = limit - rem
					m.flushOpCounts()
					m.feedPrefix(df, pc)
					o := m.Prog.Objects[in.Aux]
					return 0, &Fault{df.Fn.Name, meta[pc].Block, int(meta[pc].Index),
						fmt.Sprintf("store address %d outside hinted object %s [%d,%d)", addr, o.Name, o.Base, o.Base+o.Size)}
				}
				mem[addr] = v2
				if digest != nil {
					digest.store(addr, v2)
				}
				if m.OnRun != nil {
					m.noteAddr(addr)
				}
				if dtm != nil {
					dtm.Store(ir.MemID(in.Aux))
				}
				if memoActive {
					// Regions never contain stores; defensive abort.
					m.abortMemo()
					memoActive = false
				}
				if len(m.funcMemos) > 0 {
					// Pure-callee selection forbids this; never record a
					// result that observed a store.
					m.dropFuncMemos()
				}
			case ir.Jmp:
				taken = true
				ctrl = true
				nextPC = int(in.Target)
			case ir.Beq, ir.Bne, ir.Blt, ir.Bge, ir.Ble, ir.Bgt:
				switch in.Op {
				case ir.Beq:
					taken = v1 == v2
				case ir.Bne:
					taken = v1 != v2
				case ir.Blt:
					taken = v1 < v2
				case ir.Bge:
					taken = v1 >= v2
				case ir.Ble:
					taken = v1 <= v2
				case ir.Bgt:
					taken = v1 > v2
				}
				m.Stats.Branches++
				ctrl = true
				if taken {
					m.Stats.TakenBranches++
					nextPC = int(in.Target)
				}
			case ir.Call:
				if memoActive {
					m.abortMemo()
					memoActive = false
				}
				if m.OnRun != nil {
					m.feedRun(df, pc, true)
				}
				cdf := dec.Funcs[in.Aux]
				fr.pc = nextPC // return point; set before push (append may move frames)
				nf := m.pushFFrame(cdf, in.Dest)
				caller := &m.fframes[len(m.fframes)-2]
				for i, a := range meta[pc].Src.Args {
					nf.regs[i+1] = caller.regs[a]
				}
				if digest != nil {
					digest.instr(df.Addr(int32(pc)), 0, true, cdf.Base)
				}
				if trace != nil {
					m.Stats.DynInstrs = limit - rem
					m.emitFlat(trace, df, pc, in, &meta[pc], v1, v2, 0, 0, true, cdf.Base, nf.regs)
				}
				fr = nf
				df = cdf
				pc = 0
				continue outer
			case ir.Ret:
				if memoActive {
					m.abortMemo()
					memoActive = false
				}
				m.Stats.DynInstrs = limit - rem
				retVal := in.Imm
				if in.Src1 != ir.NoReg {
					retVal = v1
				}
				if digest != nil {
					m.digestRet(df, pc, retVal)
				}
				if trace != nil {
					m.emitFlat(trace, df, pc, in, &meta[pc], v1, v2, 0, retVal, true, m.retTarget(), regs)
				}
				if m.OnRun != nil {
					m.feedRun(df, pc, true)
				}
				dest := fr.retDest
				m.popFFrame()
				if len(m.funcMemos) > 0 {
					m.commitFuncMemos(retVal, len(m.fframes))
				}
				if len(m.fframes) == 0 {
					m.flushOpCounts()
					return retVal, nil
				}
				fr = &m.fframes[len(m.fframes)-1]
				if dest != ir.NoReg {
					fr.regs[dest] = retVal
				}
				df = fr.df
				pc = fr.pc
				continue outer
			case ir.Reuse:
				m.Stats.DynInstrs = limit - rem
				hit, rout, reused := m.execReuse(ir.RegionID(in.Aux), regs, df.Fn.NumRegs, len(m.fframes))
				taken = hit
				if hit {
					nextPC = int(in.Target)
				}
				if m.OnRun != nil {
					m.run.ReuseHit, m.run.ReuseOut, m.run.ReusedInstrs = hit, rout, reused
					m.feedRun(df, pc, hit)
				}
				if digest != nil {
					// tpc is folded only when the hit is taken.
					digest.instr(df.Addr(int32(pc)), 0, hit, df.Addr(in.Target))
					if hit {
						m.digestReuse(ir.RegionID(in.Aux), regs)
					}
				}
				if trace != nil {
					tpc := df.Addr(in.Target)
					if !hit {
						tpc = df.Addr(int32(pc + 1))
					}
					mt := &meta[pc]
					ev := &m.ev
					ev.Func, ev.Block, ev.Index, ev.Instr = df.Fn, mt.Block, int(mt.Index), mt.Src
					ev.PC = df.Addr(int32(pc))
					ev.Regs = regs
					ev.Val1, ev.Val2, ev.Addr, ev.Result = 0, 0, 0, 0
					ev.Taken, ev.TargetPC = hit, tpc
					ev.ReuseHit, ev.ReuseOut, ev.ReusedInstrs = hit, rout, reused
					ev.InvalCount = 0
					trace(ev)
				}
				pc = nextPC
				continue outer
			case ir.Inval:
				m.Stats.Invalidations++
				m.lastInval = 0
				if m.CRB != nil {
					m.lastInval = m.CRB.Invalidate(ir.MemID(in.Aux))
				}
				if memoActive {
					m.abortMemo()
					memoActive = false
				}
				if len(m.funcMemos) > 0 {
					m.dropFuncMemos()
				}
			default:
				m.Stats.DynInstrs = limit - rem
				m.flushOpCounts()
				m.feedPrefix(df, pc)
				return 0, &Fault{df.Fn.Name, meta[pc].Block, int(meta[pc].Index), fmt.Sprintf("invalid opcode %d", in.Op)}
			}

			if memoActive {
				// memoStep wants the interpreter's pre-normalized successor
				// position, derived from the CFG coordinates (see the file
				// comment).
				mt := &meta[pc]
				var nb ir.BlockID
				var ni int
				if taken {
					nb, ni = mt.Src.Target, 0
				} else {
					nb, ni = mt.Block, int(mt.Index)+1
				}
				m.memoStep(df.Fn, mt.Src, result, nb, ni)
			}

			if digest != nil {
				// Only a branch is taken, and its target is nextPC.
				digest.instr(df.Addr(int32(pc)), result, taken, df.Addr(int32(nextPC)))
			}
			if trace != nil {
				m.Stats.DynInstrs = limit - rem
				tpc := int64(0)
				if in.Op.IsBranch() {
					tpc = df.Addr(int32(nextPC))
				}
				m.emitFlat(trace, df, pc, in, &meta[pc], v1, v2, addr, result, taken, tpc, regs)
			}
			if ctrl {
				if m.OnRun != nil {
					m.feedRun(df, pc, taken)
				}
				pc = nextPC
				continue outer
			}
			pc = nextPC
		}
	}
}
