package emu

import "ccr/internal/ir"

// Digest accumulates the streaming components of an architectural digest
// (internal/oracle seals it with the result and final memory). Attach one
// as Machine.Digest: the predecoded engine folds each executed
// instruction into it inline on whichever tier runs it, at the points
// where the interpreter emits an Event, without building the event or
// calling out. The interpreter folds its own event stream through the
// same methods, so it stays an independent reference for which values
// get folded. The zero value is an empty digest.
type Digest struct {
	// Trace mixes every executed instruction's byte address and result,
	// plus the target address of a taken transfer; DynInstrs counts the
	// instructions folded. DTM replays execute nothing and fold nothing.
	Trace     uint64
	DynInstrs int64
	// Stores mixes each executed store's (address, value); StoreCount
	// counts them.
	Stores     uint64
	StoreCount int64
	// Rets mixes the return-value stream, with the ret of every call a
	// function-level reuse hit skipped synthesized from the region's
	// outputs; RetCount is its length. RetsInexact is set once such a hit
	// skipped a callee that itself makes calls, whose nested rets cannot
	// be synthesized.
	Rets        uint64
	RetCount    int64
	RetsInexact bool
}

// Mix folds v into the running checksum h. It is a fast, order-sensitive,
// non-cryptographic mix (splitmix64 finalizer folded FNV-style); digests
// need collision resistance against accidental divergence, not
// adversaries.
func Mix(h, v uint64) uint64 {
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 32
	return (h ^ v) * 0x100000001B3
}

// instr folds one executed instruction at byte address pc with the given
// result; tpc, the transfer target, is folded only when taken.
func (d *Digest) instr(pc, result int64, taken bool, tpc int64) {
	d.step(pc, result)
	if taken {
		d.Trace = Mix(d.Trace, uint64(tpc)|1)
	}
}

// step is instr for an instruction that did not transfer control.
func (d *Digest) step(pc, result int64) {
	d.DynInstrs++
	d.Trace = Mix(Mix(d.Trace, uint64(pc)), uint64(result))
}

// store folds an executed store of val to word address addr.
func (d *Digest) store(addr, val int64) {
	d.Stores = Mix(Mix(d.Stores, uint64(addr)), uint64(val))
	d.StoreCount++
}

// ret folds one value of the return-value stream.
func (d *Digest) ret(val int64) {
	d.Rets = Mix(d.Rets, uint64(val))
	d.RetCount++
}

// digestRet folds the ret at flat PC pc of df, which returns retVal, while
// its frame is still the innermost.
func (m *Machine) digestRet(df *ir.DecodedFunc, pc int, retVal int64) {
	m.Digest.instr(df.Addr(int32(pc)), retVal, true, m.retTarget())
	m.Digest.ret(retVal)
}

// digestReuse folds a reuse hit on region id into the attached digest. A
// function-level hit skipped a call and its ret, so the ret value is
// synthesized from the region outputs the hit just wrote to regs.
func (m *Machine) digestReuse(id ir.RegionID, regs []int64) {
	rg := m.Prog.Region(id)
	if rg == nil || rg.Kind != ir.FuncLevel {
		return
	}
	d := m.Digest
	for _, out := range rg.Outputs {
		d.ret(regs[out])
	}
	if rg.Callee != ir.NoFunc && m.dec.Ext(callsKey{}, buildCalls).([]bool)[rg.Callee] {
		d.RetsInexact = true
	}
}

// callsKey keys the decoded program's calls table (buildCalls).
type callsKey struct{}

// buildCalls reports, per function, whether it contains a call.
func buildCalls(dec *ir.DecodedProgram) any {
	calls := make([]bool, len(dec.Funcs))
	for f, df := range dec.Funcs {
		for i := range df.Code {
			if df.Code[i].Op == ir.Call {
				calls[f] = true
				break
			}
		}
	}
	return calls
}

// digestEvent folds one interpreter event into the attached digest.
func (m *Machine) digestEvent(ev *Event) {
	d := m.Digest
	d.instr(ev.PC, ev.Result, ev.Taken, ev.TargetPC)
	switch ev.Instr.Op {
	case ir.St:
		d.store(ev.Addr, ev.Val2)
	case ir.Ret:
		d.ret(ev.Result)
	case ir.Reuse:
		if ev.ReuseHit {
			m.digestReuse(ev.Instr.Region, ev.Regs)
		}
	}
}
