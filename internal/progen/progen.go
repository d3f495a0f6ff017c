// Package progen generates random, verified, always-terminating IR
// programs for property-based testing. The generator builds structured
// control flow only — sequences, if/else hammocks and counted loops — so
// every generated program halts, while still exercising branches, nested
// calls, loads, stores and multi-block dataflow. The CCR equivalence
// property (transformed program + any CRB ≡ base program) is tested
// against these programs with deliberately aggressive region formation.
package progen

import "ccr/internal/ir"

// Config bounds the generated program shape.
type Config struct {
	Funcs      int // number of functions (≥1)
	Objects    int // number of memory objects (≥1)
	MaxDepth   int // structured-control nesting depth
	MaxStmts   int // statements per nesting level
	MaxLoop    int // maximum counted-loop trip count
	ObjWords   int // words per object (power of two)
	ValueCard  int // cardinality of immediate pools (drives value locality)
	StoreBias  int // percent of memory statements that are stores
	CallBias   int // percent chance a statement is a call (when callees exist)
	ReadOnly   int // percent of objects that are read-only
	MaxParams  int
	MaxRegions int // unused by generation; callers size formation with it
}

// DefaultConfig returns moderate bounds suitable for quick-style tests.
func DefaultConfig() Config {
	return Config{
		Funcs:     4,
		Objects:   4,
		MaxDepth:  3,
		MaxStmts:  6,
		MaxLoop:   5,
		ObjWords:  32,
		ValueCard: 7,
		StoreBias: 30,
		CallBias:  25,
		ReadOnly:  40,
		MaxParams: 3,
	}
}

type gen struct {
	cfg  Config
	rs   uint64
	pb   *ir.ProgramBuilder
	objs []ir.MemID
	ro   []bool
	// funcs built so far (callable from later functions).
	funcs []builtFunc
}

type builtFunc struct {
	id      ir.FuncID
	nparams int
}

func (g *gen) next() uint64 {
	g.rs += 0x9E3779B97F4A7C15
	z := g.rs
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *gen) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(g.next() % uint64(n))
}

func (g *gen) pct(p int) bool { return g.intn(100) < p }

// Generate builds a random verified program from the seed.
func Generate(seed uint64, cfg Config) *ir.Program {
	g := &gen{cfg: cfg, rs: seed, pb: ir.NewProgramBuilder("progen")}
	for i := 0; i < cfg.Objects; i++ {
		init := make([]int64, cfg.ObjWords)
		for j := range init {
			init[j] = int64(g.intn(64)) - 16
		}
		if g.pct(cfg.ReadOnly) {
			g.objs = append(g.objs, g.pb.ReadOnlyObject(objName(i), init))
			g.ro = append(g.ro, true)
		} else {
			g.objs = append(g.objs, g.pb.Object(objName(i), int64(cfg.ObjWords), init))
			g.ro = append(g.ro, false)
		}
	}
	// Leaf functions first; later functions may call earlier ones.
	for i := 0; i < cfg.Funcs-1; i++ {
		np := 1 + g.intn(cfg.MaxParams)
		g.buildFunc(funcName(i), np)
	}
	g.buildFunc("main", 1)
	p := g.pb.Build()
	return ir.MustVerify(p)
}

func objName(i int) string  { return "obj" + string(rune('a'+i%26)) }
func funcName(i int) string { return "fn" + string(rune('a'+i%26)) }

// fctx is the per-function emission state.
type fctx struct {
	g    *gen
	fb   *ir.FuncBuilder
	cur  *ir.BlockBuilder
	regs []ir.Reg // general-purpose value registers
}

func (g *gen) buildFunc(name string, nparams int) {
	fb := g.pb.Func(name, nparams)
	c := &fctx{g: g, fb: fb}
	for i := 0; i < nparams; i++ {
		c.regs = append(c.regs, fb.Param(i))
	}
	// A few extra scratch registers seeded with immediates.
	c.cur = fb.NewBlock()
	for i := 0; i < 3; i++ {
		r := fb.NewReg()
		c.cur.MovI(r, int64(g.intn(g.cfg.ValueCard)))
		c.regs = append(c.regs, r)
	}
	c.emitStmts(g.cfg.MaxDepth)
	c.cur.Ret(c.pick())
	g.funcs = append(g.funcs, builtFunc{id: fb.ID(), nparams: nparams})
}

// pick returns a random live register.
func (c *fctx) pick() ir.Reg { return c.regs[c.g.intn(len(c.regs))] }

// fresh allocates a new register, registering it in the pool so later
// statements can consume it.
func (c *fctx) fresh() ir.Reg {
	r := c.fb.NewReg()
	c.regs = append(c.regs, r)
	return r
}

func (c *fctx) emitStmts(depth int) {
	g := c.g
	n := 1 + g.intn(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && g.pct(20):
			c.emitLoop(depth - 1)
		case depth > 0 && g.pct(25):
			c.emitIf(depth - 1)
		case g.pct(30):
			c.emitMem()
		case g.pct(g.cfg.CallBias) && len(g.funcs) > 0:
			c.emitCall()
		default:
			c.emitALU()
		}
	}
}

var aluOps = []ir.Opcode{
	ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
	ir.Shl, ir.Shr, ir.Sra, ir.Slt, ir.Sle, ir.Seq, ir.Sne, ir.Mov,
}

func (c *fctx) emitALU() {
	g := c.g
	op := aluOps[g.intn(len(aluOps))]
	d := c.fresh()
	if op == ir.Mov {
		c.cur.Mov(d, c.pick())
		return
	}
	if g.pct(40) {
		c.cur.Emit(ir.Instr{Op: op, Dest: d, Src1: c.pick(), Src2: ir.NoReg,
			Imm: int64(g.intn(g.cfg.ValueCard)) - 2, Mem: ir.NoMem, Region: ir.NoRegion})
		return
	}
	c.cur.Emit(ir.Instr{Op: op, Dest: d, Src1: c.pick(), Src2: c.pick(),
		Mem: ir.NoMem, Region: ir.NoRegion})
}

// emitMem emits a masked, hinted load or store: idx = v & (words-1);
// addr = base(obj) + idx, formed by one indexed Lea or, for every other
// idx register, by a Lea of the base and an Add of the index (the
// Add-then-Ld pair the batch tier fuses into XFAddLd). The choice draws no
// random number, so the rest of every seed's program keeps its shape.
func (c *fctx) emitMem() {
	g := c.g
	oi := g.intn(len(g.objs))
	obj := g.objs[oi]
	mask := int64(g.cfg.ObjWords - 1)
	idx := c.fresh()
	c.cur.AndI(idx, c.pick(), mask)
	addr := c.fresh()
	if idx%2 == 0 {
		base := c.fb.NewReg()
		c.cur.Lea(base, obj, 0)
		c.cur.Add(addr, base, idx)
	} else {
		c.cur.LeaIdx(addr, obj, idx, 0)
	}
	if !g.ro[oi] && g.pct(g.cfg.StoreBias) {
		c.cur.St(addr, 0, c.pick(), obj)
		return
	}
	d := c.fresh()
	c.cur.Ld(d, addr, 0, obj)
}

func (c *fctx) emitCall() {
	g := c.g
	callee := g.funcs[g.intn(len(g.funcs))]
	args := make([]ir.Reg, callee.nparams)
	for i := range args {
		args[i] = c.pick()
	}
	d := c.fresh()
	c.cur.Call(d, callee.id, args...)
}

// emitIf builds a structured conditional: cur ends with a branch that
// skips the arm when taken; the arm falls through into the join block.
// The branch target is patched after the arm is emitted (the branch
// terminates its block, so the instruction pointer stays valid).
func (c *fctx) emitIf(depth int) {
	g := c.g
	fb := c.fb
	condOps := []ir.Opcode{ir.Beq, ir.Bne, ir.Blt, ir.Bge, ir.Ble, ir.Bgt}
	op := condOps[g.intn(len(condOps))]
	br := c.cur.Emit(ir.Instr{Op: op, Src1: c.pick(), Src2: ir.NoReg,
		Imm: int64(g.intn(g.cfg.ValueCard)), Mem: ir.NoMem, Region: ir.NoRegion})
	arm := fb.NewBlock()
	c.cur = arm
	c.emitStmts(depth)
	join := fb.NewBlock()
	br.Target = join.ID()
	c.cur = join
}

// emitLoop builds a counted loop: i = 0; while i < k { body; i++ }.
func (c *fctx) emitLoop(depth int) {
	g := c.g
	fb := c.fb
	trip := 1 + g.intn(g.cfg.MaxLoop)
	i := fb.NewReg()
	c.cur.MovI(i, 0)
	head := fb.NewBlock()
	body := fb.NewBlock()
	c.regs = append(c.regs, i)
	// head is entered by fallthrough from cur.
	// Loop exit target is created after the body.
	c.cur = body
	c.emitStmts(depth)
	latch := c.cur
	latch.AddI(i, i, 1)
	latch.Jmp(head.ID())
	exit := fb.NewBlock()
	head.BgeI(i, int64(trip), exit.ID())
	c.cur = exit
}
