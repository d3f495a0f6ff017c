package ir

// This file implements the decode-time machinery behind the batch tier's
// superinstruction fusion (see emu's engine notes and DESIGN.md §15):
//
//   - EntryPC marks every flat PC where a straight-line run can legally be
//     entered. Superinstruction fusion must never pair across such a PC,
//     because a walk beginning there has to decode the same instruction
//     stream as a walk that fell into it from above.
//   - RunOps/RunBr precompute each run's opcode-count and branch-count
//     deltas, generalizing the flushOpCounts forward-carry reconstruction
//     to one table lookup per run entry.
//   - fuseXCode rewrites eligible adjacent XInstr pairs into one fused
//     superinstruction that the batch loop executes in a single dispatch.
//
// Fusion is an in-place opcode rewrite: the second instruction of a pair
// keeps its slot and operands (the fused case reads them from xcode[pc+1])
// but is never entered — pairs are only formed when the second slot is not
// an entry PC, and greedy left-to-right pairing keeps pairs disjoint, so
// every legal walk through a run decodes identical superinstructions.
// PC arithmetic, RunEnd, budget charging and the per-run histograms are
// all expressed in architectural instructions and are unaffected.

// Fused superinstruction opcodes. Each XF op executes the pair
// (xcode[pc], xcode[pc+1]) in one batch-loop dispatch; the name gives the
// two underlying X opcodes. Pairs are pure ALU (no faults, no observable
// side effects) except the *Jmp enders, which fold the run's terminal
// unconditional jump into its preceding ALU op.
const (
	XFShlIAdd  uint8 = XEnd + 1 + iota // Shl-RI then Add-RR
	XFShrIAndI                         // Shr-RI then And-RI
	XFSraIAndI                         // Sra-RI then And-RI
	XFMulIAddI                         // Mul-RI then Add-RI
	XFXorShlI                          // Xor-RR then Shl-RI
	XFXorIAdd                          // Xor-RI then Add-RR
	XFAddMulI                          // Add-RR then Mul-RI
	XFAddAdd                           // Add-RR then Add-RR
	XFAddAddI                          // Add-RR then Add-RI
	XFAddAndI                          // Add-RR then And-RI
	XFAddXor                           // Add-RR then Xor-RR
	XFAndILeaR                         // And-RI then Lea-R
	XFShlIXor                          // Shl-RI then Xor-RR
	XFAddIJmp                          // Add-RI then Jmp (run ender)
	XFAddLd                            // Add-RR then Ld (second slot may fault)
)

// XFFirst is the smallest fused opcode; IsFused(op) is op >= XFFirst.
const XFFirst = XFShlIAdd

// fusePairs maps an adjacent (XOp1, XOp2) pair to its fused opcode. Only
// pairs whose first op is a non-faulting, non-control ALU op may appear:
// the fused case applies op1 unconditionally before op2 runs (or faults,
// for XFAddLd), exactly as sequential execution would.
var fusePairs = map[[2]uint8]uint8{
	{XShlRI, XAddRR}: XFShlIAdd,
	{XShrRI, XAndRI}: XFShrIAndI,
	{XSraRI, XAndRI}: XFSraIAndI,
	{XMulRI, XAddRI}: XFMulIAddI,
	{XXorRR, XShlRI}: XFXorShlI,
	{XXorRI, XAddRR}: XFXorIAdd,
	{XAddRR, XMulRI}: XFAddMulI,
	{XAddRR, XAddRR}: XFAddAdd,
	{XAddRR, XAddRI}: XFAddAddI,
	{XAddRR, XAndRI}: XFAddAndI,
	{XAddRR, XXorRR}: XFAddXor,
	{XAndRI, XLeaR}:  XFAndILeaR,
	{XShlRI, XXorRR}: XFShlIXor,
	{XAddRI, XJmp}:   XFAddIJmp,
	{XAddRR, XLd}:    XFAddLd,
}

// OpCount is one opcode's execution count within a straight-line run.
type OpCount struct {
	Op Opcode
	N  int32
}

// entryPCs computes the run-entry set: the function entry, every control
// transfer's flat successor (call fall-through and post-return resume
// included), and every resolved branch/reuse target. These are exactly
// the PCs at which the batch tier can begin a run, so fusion treats them
// as unsplittable boundaries.
func entryPCs(df *DecodedFunc) []bool {
	e := make([]bool, len(df.Code))
	e[0] = true
	for i := range df.Code {
		switch df.Code[i].Op {
		case Jmp, Beq, Bne, Blt, Bge, Ble, Bgt, Call, Ret, Reuse:
			if i+1 < len(e) {
				e[i+1] = true
			}
			if t := df.Code[i].Target; t >= 0 && int(t) < len(e) {
				e[t] = true
			}
		}
	}
	return e
}

// runDeltas precomputes, for every possible run head pc, the opcode-count
// list and conditional-branch count of the run [pc, RunEnd[pc]]. The
// sentinel slot is included when a run falls off the end — its pre-charge
// is refunded through a byCorr range, mirroring the carry-sweep form.
func runDeltas(df *DecodedFunc) ([][]OpCount, []int32) {
	n := len(df.Code)
	ops := make([][]OpCount, n)
	br := make([]int32, n)
	var counts [64]int32
	for i := 0; i < n; i++ {
		end := int(df.RunEnd[i])
		var order []Opcode
		for j := i; j <= end; j++ {
			op := df.Code[j].Op
			if counts[op] == 0 {
				order = append(order, op)
			}
			counts[op]++
			switch op {
			case Beq, Bne, Blt, Bge, Ble, Bgt:
				br[i]++
			}
		}
		list := make([]OpCount, len(order))
		for k, op := range order {
			list[k] = OpCount{Op: op, N: counts[op]}
			counts[op] = 0
		}
		ops[i] = list
	}
	return ops, br
}

// fuseXCode rewrites adjacent instruction pairs into fused
// superinstructions, in place. A pair (i, i+1) forms only when the table
// lists the opcode combination and i+1 is not a run-entry PC; greedy
// left-to-right scanning keeps pairs disjoint, which together with the
// entry-PC rule makes every legal walk decode the same fused stream (a
// walk can land on slot i+1 only by entering there, and entries are
// excluded). The second slot keeps its original encoding — fused cases
// read their operands from xcode[pc+1] directly.
func fuseXCode(xcode []XInstr, entry []bool) {
	for i := 0; i+1 < len(xcode); {
		if !entry[i+1] {
			if xf, ok := fusePairs[[2]uint8{xcode[i].XOp, xcode[i+1].XOp}]; ok {
				xcode[i].XOp = xf
				i += 2
				continue
			}
		}
		i++
	}
}
