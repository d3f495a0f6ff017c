package emu

import (
	"testing"

	"ccr/internal/ir"
)

// buildSumLoop builds: main(n) { s=0; for i=0..n-1 { s += A[i] }; return s }
func buildSumLoop(t testing.TB, vals []int64) *ir.Program {
	t.Helper()
	return buildSumLoopPadded(t, vals, 0)
}

// buildSumLoopPadded is buildSumLoop with a pad-word object B laid out
// after A (none when pad is 0), so a loop that walks past the end of A
// stays inside memory and faults on A's hinted bounds instead.
func buildSumLoopPadded(t testing.TB, vals []int64, pad int64) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("sumloop")
	arr := pb.ReadOnlyObject("A", vals)
	if pad > 0 {
		pb.Object("B", pad, nil)
	}
	f := pb.Func("main", 1)
	n := f.Param(0)
	entry := f.NewBlock()
	loop := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	s, i, base, addr, v := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.MovI(s, 0)
	entry.MovI(i, 0)
	entry.Lea(base, arr, 0)
	loop.Bge(i, n, exit.ID())
	body.Add(addr, base, i)
	body.Ld(v, addr, 0, arr)
	body.Add(s, s, v)
	body.AddI(i, i, 1)
	body.Jmp(loop.ID())
	exit.Ret(s)
	p := pb.Build()
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}

func TestSumLoop(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	p := buildSumLoop(t, vals)
	m := New(p)
	got, err := m.Run(int64(len(vals)))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var want int64
	for _, v := range vals {
		want += v
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if m.Stats.DynInstrs == 0 || m.Stats.Branches == 0 {
		t.Fatalf("stats not collected: %+v", m.Stats)
	}
}

func TestArithmeticSemantics(t *testing.T) {
	cases := []struct {
		op   ir.Opcode
		a, b int64
		want int64
	}{
		{ir.Add, 7, 5, 12},
		{ir.Sub, 7, 5, 2},
		{ir.Mul, -3, 5, -15},
		{ir.Div, 17, 5, 3},
		{ir.Div, 17, 0, 0},
		{ir.Div, -17, 5, -3},
		{ir.Rem, 17, 5, 2},
		{ir.Rem, 17, 0, 0},
		{ir.And, 0b1100, 0b1010, 0b1000},
		{ir.Or, 0b1100, 0b1010, 0b1110},
		{ir.Xor, 0b1100, 0b1010, 0b0110},
		{ir.Shl, 3, 4, 48},
		{ir.Shr, -1, 60, 15},
		{ir.Sra, -16, 2, -4},
		{ir.Slt, 3, 4, 1},
		{ir.Slt, 4, 3, 0},
		{ir.Sle, 4, 4, 1},
		{ir.Seq, 5, 5, 1},
		{ir.Sne, 5, 5, 0},
	}
	for _, tc := range cases {
		pb := ir.NewProgramBuilder("arith")
		f := pb.Func("main", 2)
		b := f.NewBlock()
		d := f.NewReg()
		b.Emit(ir.Instr{Op: tc.op, Dest: d, Src1: f.Param(0), Src2: f.Param(1)})
		b.Ret(d)
		p := pb.Build()
		if err := ir.Verify(p); err != nil {
			t.Fatalf("%v: verify: %v", tc.op, err)
		}
		got, err := New(p).Run(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%v: run: %v", tc.op, err)
		}
		if got != tc.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCallAndReturn(t *testing.T) {
	pb := ir.NewProgramBuilder("call")
	// callee(a, b) = a*2 + b
	g := pb.Func("double_add", 2)
	gb := g.NewBlock()
	tmp := g.NewReg()
	gb.ShlI(tmp, g.Param(0), 1)
	gb.Add(tmp, tmp, g.Param(1))
	gb.Ret(tmp)
	// main(x) = double_add(x, 7) + double_add(x, 1)
	f := pb.Func("main", 1)
	fb := f.NewBlock()
	r1, r2, c := f.NewReg(), f.NewReg(), f.NewReg()
	fb.MovI(c, 7)
	fb.Call(r1, g.ID(), f.Param(0), c)
	fb.MovI(c, 1)
	fb.Call(r2, g.ID(), f.Param(0), c)
	fb.Add(r1, r1, r2)
	fb.Ret(r1)
	p := pb.Build()
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got, err := New(p).Run(10)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := int64(2*10 + 7 + 2*10 + 1); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestStoreAndLoad(t *testing.T) {
	pb := ir.NewProgramBuilder("mem")
	buf := pb.Object("buf", 16, nil)
	f := pb.Func("main", 1)
	b := f.NewBlock()
	base, v := f.NewReg(), f.NewReg()
	b.Lea(base, buf, 3)
	b.St(base, 0, f.Param(0), buf)
	b.Ld(v, base, 0, buf)
	b.AddI(v, v, 100)
	b.Ret(v)
	p := pb.Build()
	got, err := New(p).Run(42)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 142 {
		t.Fatalf("got %d, want 142", got)
	}
}

func TestLoadFault(t *testing.T) {
	pb := ir.NewProgramBuilder("fault")
	pb.Object("buf", 4, nil)
	f := pb.Func("main", 0)
	b := f.NewBlock()
	a, v := f.NewReg(), f.NewReg()
	b.MovI(a, 1_000_000)
	b.Ld(v, a, 0, ir.NoMem)
	b.Ret(v)
	p := pb.Build()
	_, err := New(p).Run()
	if err == nil {
		t.Fatal("expected fault for out-of-range load")
	}
	var fault *Fault
	if !errorsAs(err, &fault) {
		t.Fatalf("error %v is not a Fault", err)
	}
}

func errorsAs(err error, target **Fault) bool {
	f, ok := err.(*Fault)
	if ok {
		*target = f
	}
	return ok
}

func TestInstructionLimit(t *testing.T) {
	pb := ir.NewProgramBuilder("inf")
	f := pb.Func("main", 0)
	b := f.NewBlock()
	b.Jmp(b.ID())
	p := pb.Build()
	m := New(p)
	m.Limit = 1000
	_, err := m.Run()
	if err != ErrLimit {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if m.Stats.DynInstrs != 1000 {
		t.Fatalf("DynInstrs = %d, want 1000", m.Stats.DynInstrs)
	}
}

func TestTraceEvents(t *testing.T) {
	vals := []int64{1, 2, 3, 4}
	p := buildSumLoop(t, vals)
	m := New(p)
	var n int64
	var pcs []int64
	m.Trace = func(ev *Event) {
		n++
		pcs = append(pcs, ev.PC)
		if ev.Instr == nil || ev.Func == nil {
			t.Fatal("trace event missing instruction or function")
		}
	}
	if _, err := m.Run(int64(len(vals))); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != m.Stats.DynInstrs {
		t.Fatalf("traced %d events, executed %d instructions", n, m.Stats.DynInstrs)
	}
	for _, pc := range pcs {
		if pc%4 != 0 || pc < 0 || pc >= int64(p.TextLen*4) {
			t.Fatalf("bad PC %d", pc)
		}
	}
}
