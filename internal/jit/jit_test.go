package jit

import (
	"testing"
	"testing/quick"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/lift"
	"repro/internal/opt"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// compileAndRun compiles f into a fresh machine and calls it.
func compileAndRun(t *testing.T, mem *emu.Memory, f *ir.Func, ints []uint64, fps []float64) (uint64, *emu.Machine) {
	t.Helper()
	c := NewCompiler(mem)
	entry, err := c.Compile(f)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, ir.FormatFunc(f))
	}
	m := emu.NewMachine(mem)
	got, err := m.Call(entry, emu.CallArgs{Ints: ints, Floats: fps}, 1_000_000)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.FormatFunc(f))
	}
	return got, m
}

func TestCompileMax(t *testing.T) {
	f := ir.NewFunc("max", ir.I64, ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	lt := b.ICmp(ir.PredSLT, f.Params[0], f.Params[1])
	b.Ret(b.Select(lt, f.Params[1], f.Params[0]))
	mem := emu.NewMemory(0x1000000)
	cases := [][3]int64{{1, 2, 2}, {9, 3, 9}, {-5, -9, -5}, {0, 0, 0}}
	for _, cse := range cases {
		got, _ := compileAndRun(t, emu.NewMemory(0x1000000), f, []uint64{uint64(cse[0]), uint64(cse[1])}, nil)
		if int64(got) != cse[2] {
			t.Errorf("max(%d,%d) = %d, want %d", cse[0], cse[1], int64(got), cse[2])
		}
	}
	_ = mem
}

func TestCompileLoopSum(t *testing.T) {
	f := ir.NewFunc("sum", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	entry := b.Cur
	loop := f.NewBlock("loop")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.PredSLT, i, f.Params[0]), body, exit)
	b.SetBlock(body)
	s2 := b.Add(s, i)
	i2 := b.Add(i, ir.Int(ir.I64, 1))
	b.Br(loop)
	ir.AddIncoming(i, ir.Int(ir.I64, 0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.Int(ir.I64, 0), entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Ret(s)

	for _, n := range []uint64{0, 1, 10, 1000} {
		got, _ := compileAndRun(t, emu.NewMemory(0x1000000), f, []uint64{n}, nil)
		if got != n*(n-1)/2 {
			t.Errorf("sum(%d) = %d", n, got)
		}
	}
}

// TestCompileSelfRecursiveCall: a function that calls itself is compiled
// before its own address is known, so the call must target the entry label
// and land on the function's first byte once placed.
func TestCompileSelfRecursiveCall(t *testing.T) {
	// sum(n) = n == 0 ? 0 : n + sum(n-1)
	f := ir.NewFunc("sum", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	base := f.NewBlock("base")
	rec := f.NewBlock("rec")
	b.CondBr(b.ICmp(ir.PredEQ, f.Params[0], ir.Int(ir.I64, 0)), base, rec)
	b.SetBlock(base)
	b.Ret(ir.Int(ir.I64, 0))
	b.SetBlock(rec)
	r := b.Call(f, b.Sub(f.Params[0], ir.Int(ir.I64, 1)))
	b.Ret(b.Add(f.Params[0], r))

	mem := emu.NewMemory(0x1000000)
	c := NewCompiler(mem)
	entry, err := c.Compile(f)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, ir.FormatFunc(f))
	}
	for _, n := range []uint64{0, 1, 2, 10, 50} {
		got, err := emu.NewMachine(mem).Call(entry, emu.CallArgs{Ints: []uint64{n}}, 1_000_000)
		if err != nil {
			t.Fatalf("sum(%d): %v", n, err)
		}
		if got != n*(n+1)/2 {
			t.Errorf("sum(%d) = %d, want %d", n, got, n*(n+1)/2)
		}
	}

	code, err := mem.Bytes(entry, c.Sizes[entry])
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for off := 0; off < len(code); {
		in, err := x86.Decode(code[off:], entry+uint64(off))
		if err != nil {
			t.Fatalf("decode at +%#x: %v", off, err)
		}
		if in.Op == x86.CALL {
			calls++
			if tgt, ok := in.BranchTarget(); !ok || tgt != entry {
				t.Errorf("call at +%#x targets %#x, want the entry %#x", off, tgt, entry)
			}
		}
		off += in.Len
	}
	if calls != 1 {
		t.Errorf("%d calls in the code, want 1", calls)
	}
}

func TestCompileFloatKernel(t *testing.T) {
	// out = a*x + y with doubles.
	f := ir.NewFunc("axpy", ir.Double, ir.Double, ir.Double, ir.Double)
	b := ir.NewBuilder(f)
	b.Ret(b.FAdd(b.FMul(f.Params[0], f.Params[1]), f.Params[2]))
	mem := emu.NewMemory(0x1000000)
	c := NewCompiler(mem)
	entry, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	_, err = m.Call(entry, emu.CallArgs{Floats: []float64{3, 4, 5}}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got := m.XMM[0]
	want := emu.XMMReg{Lo: f64b(17)}
	if got.Lo != want.Lo {
		t.Errorf("axpy(3,4,5) = %x, want %x", got.Lo, want.Lo)
	}
}

func f64b(v float64) uint64 {
	return ir.RVFloat(v).Lo
}

func TestCompileMemoryOps(t *testing.T) {
	// f(p, i) = p[i] + p[i+1], doubles.
	f := ir.NewFunc("pair", ir.Double, ir.PtrTo(ir.I8), ir.I64)
	b := ir.NewBuilder(f)
	dp := b.Bitcast(f.Params[0], ir.PtrTo(ir.Double))
	l0 := b.Load(ir.Double, b.GEP(ir.Double, dp, f.Params[1]))
	l1 := b.Load(ir.Double, b.GEP(ir.Double, dp, b.Add(f.Params[1], ir.Int(ir.I64, 1))))
	b.Ret(b.FAdd(l0, l1))

	mem := emu.NewMemory(0x1000000)
	buf := mem.Alloc(64, 16, "buf")
	mem.WriteFloat64(buf.Start+16, 1.5)
	mem.WriteFloat64(buf.Start+24, 2.25)
	c := NewCompiler(mem)
	entry, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	if _, err := m.Call(entry, emu.CallArgs{Ints: []uint64{buf.Start, 2}}, 1000); err != nil {
		t.Fatal(err)
	}
	if got := m.XMM[0].Lo; got != f64b(3.75) {
		t.Errorf("pair = %x, want %x", got, f64b(3.75))
	}
}

func TestCompileStore(t *testing.T) {
	f := ir.NewFunc("st", ir.Void, ir.PtrTo(ir.I8), ir.I64)
	b := ir.NewBuilder(f)
	p := b.Bitcast(f.Params[0], ir.PtrTo(ir.I64))
	b.Store(b.Mul(f.Params[1], ir.Int(ir.I64, 3)), p)
	b.Store(ir.Int(ir.I64, 77), b.GEP(ir.I64, p, ir.Int(ir.I64, 1)))
	b.Ret(nil)
	mem := emu.NewMemory(0x1000000)
	buf := mem.Alloc(64, 16, "buf")
	c := NewCompiler(mem)
	entry, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	if _, err := m.Call(entry, emu.CallArgs{Ints: []uint64{buf.Start, 14}}, 1000); err != nil {
		t.Fatal(err)
	}
	v0, _ := mem.ReadU(buf.Start, 8)
	v1, _ := mem.ReadU(buf.Start+8, 8)
	if v0 != 42 || v1 != 77 {
		t.Errorf("stored %d, %d; want 42, 77", v0, v1)
	}
}

func TestCompileAlloca(t *testing.T) {
	f := ir.NewFunc("spill", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	a := b.Alloca(ir.I64, 4)
	slot := b.GEP(ir.I64, a, ir.Int(ir.I64, 2))
	b.Store(f.Params[0], slot)
	v := b.Load(ir.I64, slot)
	b.Ret(b.Add(v, ir.Int(ir.I64, 1)))
	got, _ := compileAndRun(t, emu.NewMemory(0x1000000), f, []uint64{41}, nil)
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestCompileCall(t *testing.T) {
	g := ir.NewFunc("twice", ir.I64, ir.I64)
	gb := ir.NewBuilder(g)
	gb.Ret(gb.Add(g.Params[0], g.Params[0]))

	f := ir.NewFunc("caller", ir.I64, ir.I64)
	fb := ir.NewBuilder(f)
	c1 := fb.Call(g, f.Params[0])
	c2 := fb.Call(g, c1)
	fb.Ret(fb.Add(c2, ir.Int(ir.I64, 1)))

	m := &ir.Module{}
	m.AddFunc(g)
	m.AddFunc(f)
	mem := emu.NewMemory(0x1000000)
	c := NewCompiler(mem)
	entry, err := c.CompileModule(m, "caller")
	if err != nil {
		t.Fatal(err)
	}
	mach := emu.NewMachine(mem)
	got, err := mach.Call(entry, emu.CallArgs{Ints: []uint64{5}}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 21 {
		t.Errorf("caller(5) = %d, want 21", got)
	}
}

func TestCompileVectorOps(t *testing.T) {
	v2 := ir.VecOf(ir.Double, 2)
	f := ir.NewFunc("vsum", ir.Double, ir.PtrTo(ir.I8))
	b := ir.NewBuilder(f)
	vp := b.Bitcast(f.Params[0], ir.PtrTo(v2))
	v := b.Load(v2, vp)
	dbl := b.FAdd(v, v)
	sw := b.ShuffleVector(dbl, ir.UndefOf(v2), []int{1, 0})
	tot := b.FAdd(dbl, sw)
	b.Ret(b.ExtractElement(tot, 0))

	mem := emu.NewMemory(0x1000000)
	buf := mem.Alloc(16, 16, "buf")
	mem.WriteFloat64(buf.Start, 3)
	mem.WriteFloat64(buf.Start+8, 4)
	c := NewCompiler(mem)
	entry, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	if _, err := m.Call(entry, emu.CallArgs{Ints: []uint64{buf.Start}}, 1000); err != nil {
		t.Fatal(err)
	}
	if m.XMM[0].Lo != f64b(14) {
		t.Errorf("vsum = %x, want %x (14.0)", m.XMM[0].Lo, f64b(14))
	}
}

func TestCompileFCmpPredicates(t *testing.T) {
	mk := func(p ir.Pred) *ir.Func {
		f := ir.NewFunc("fc", ir.I64, ir.Double, ir.Double)
		b := ir.NewBuilder(f)
		c := b.FCmp(p, f.Params[0], f.Params[1])
		b.Ret(b.ZExt(c, ir.I64))
		return f
	}
	cases := []struct {
		p    ir.Pred
		a, b float64
		want uint64
	}{
		{ir.PredOLT, 1, 2, 1}, {ir.PredOLT, 2, 1, 0}, {ir.PredOLT, 2, 2, 0},
		{ir.PredOLE, 2, 2, 1}, {ir.PredOGT, 3, 2, 1}, {ir.PredOGE, 2, 3, 0},
		{ir.PredOEQ, 5, 5, 1}, {ir.PredOEQ, 5, 6, 0},
		{ir.PredONE, 5, 6, 1}, {ir.PredONE, 5, 5, 0},
	}
	for _, cse := range cases {
		f := mk(cse.p)
		got, _ := compileAndRun(t, emu.NewMemory(0x1000000), f, nil, []float64{cse.a, cse.b})
		if got != cse.want {
			t.Errorf("fcmp %s(%g,%g) = %d, want %d", cse.p, cse.a, cse.b, got, cse.want)
		}
	}
}

// TestFullPipelineRoundTrip is the core integration test: machine code is
// lifted, optimized at -O3, JIT-compiled, and must compute the same results
// as the original on the same emulator.
func TestFullPipelineRoundTrip(t *testing.T) {
	const codeBase = 0x401000
	b := asm.NewBuilder()
	// f(in, out, i): out[i] = 0.25*(in[i-1] + in[i+1]) ; returns i*2
	b.I(x86.MOVSD_X, x86.X(x86.XMM0), x86.MemBIS(8, x86.RDI, x86.RDX, 8, -8))
	b.I(x86.ADDSD, x86.X(x86.XMM0), x86.MemBIS(8, x86.RDI, x86.RDX, 8, 8))
	b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0x3FD0000000000000, 8))
	b.I(x86.MOVQGP, x86.X(x86.XMM1), x86.R64(x86.RAX))
	b.I(x86.MULSD, x86.X(x86.XMM0), x86.X(x86.XMM1))
	b.I(x86.MOVSD_X, x86.MemBIS(8, x86.RSI, x86.RDX, 8, 0), x86.X(x86.XMM0))
	b.I(x86.LEA, x86.R64(x86.RAX), x86.MemBIS(8, x86.RDX, x86.RDX, 1, 0))
	b.Ret()
	code, _, err := b.Assemble(codeBase)
	if err != nil {
		t.Fatal(err)
	}
	mem := emu.NewMemory(0x10000000)
	if _, err := mem.MapBytes(codeBase, code, "code"); err != nil {
		t.Fatal(err)
	}
	in := mem.Alloc(16*8, 16, "in")
	outA := mem.Alloc(16*8, 16, "outA")
	outB := mem.Alloc(16*8, 16, "outB")
	for k := 0; k < 16; k++ {
		mem.WriteFloat64(in.Start+uint64(8*k), float64(3*k)+0.25)
	}

	sig := abi.Sig(abi.ClassInt, abi.ClassPtr, abi.ClassPtr, abi.ClassInt)
	l := lift.New(mem, lift.DefaultOptions())
	f, err := l.LiftFunc(codeBase, "kern", sig)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(f, opt.O3())
	if err := ir.Verify(f); err != nil {
		t.Fatalf("post-O3 verify: %v\n%s", err, ir.FormatFunc(f))
	}
	c := NewCompiler(mem)
	entry, err := c.CompileModule(l.Module, "kern")
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, ir.FormatFunc(f))
	}

	mOrig := emu.NewMachine(mem)
	mJit := emu.NewMachine(mem)
	for i := 1; i < 15; i++ {
		r1, err := mOrig.Call(codeBase, emu.CallArgs{Ints: []uint64{in.Start, outA.Start, uint64(i)}}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := mJit.Call(entry, emu.CallArgs{Ints: []uint64{in.Start, outB.Start, uint64(i)}}, 1000)
		if err != nil {
			t.Fatalf("jit run: %v\n%s", err, ir.FormatFunc(f))
		}
		if r1 != r2 {
			t.Errorf("i=%d: return %d vs %d", i, r1, r2)
		}
		a, _ := mem.ReadFloat64(outA.Start + uint64(8*i))
		bb, _ := mem.ReadFloat64(outB.Start + uint64(8*i))
		if a != bb {
			t.Errorf("i=%d: out %g vs %g", i, a, bb)
		}
	}
}

// TestPipelinePropertyALU lifts and JITs an ALU function and compares against
// direct emulation on random inputs.
func TestPipelinePropertyALU(t *testing.T) {
	const codeBase = 0x401000
	b := asm.NewBuilder()
	// f(a, b) = ((a ^ (b>>3)) * 7) - b + (a & 0xFF)
	b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RSI))
	b.I(x86.SHR, x86.R64(x86.RCX), x86.Imm(3, 1))
	b.I(x86.XOR, x86.R64(x86.RCX), x86.R64(x86.RDI))
	b.I(x86.IMUL3, x86.R64(x86.RAX), x86.R64(x86.RCX), x86.Imm(7, 8))
	b.I(x86.SUB, x86.R64(x86.RAX), x86.R64(x86.RSI))
	b.I(x86.MOVZX, x86.R64(x86.RDX), x86.R8L(x86.RDI))
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDX))
	b.Ret()
	code, _, err := b.Assemble(codeBase)
	if err != nil {
		t.Fatal(err)
	}
	mem := emu.NewMemory(0x10000000)
	if _, err := mem.MapBytes(codeBase, code, "code"); err != nil {
		t.Fatal(err)
	}
	sig := abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt)
	l := lift.New(mem, lift.DefaultOptions())
	f, err := l.LiftFunc(codeBase, "mix", sig)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(f, opt.O3())
	c := NewCompiler(mem)
	entry, err := c.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	mOrig := emu.NewMachine(mem)
	mJit := emu.NewMachine(mem)
	prop := func(a, bb uint64) bool {
		r1, err := mOrig.Call(codeBase, emu.CallArgs{Ints: []uint64{a, bb}}, 1000)
		if err != nil {
			return false
		}
		r2, err := mJit.Call(entry, emu.CallArgs{Ints: []uint64{a, bb}}, 1000)
		if err != nil {
			return false
		}
		return r1 == r2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompileDivRem(t *testing.T) {
	for _, op := range []struct {
		name   string
		build  func(b *ir.Builder, x, y ir.Value) *ir.Inst
		a, b   int64
		expect int64
	}{
		{"sdiv", func(b *ir.Builder, x, y ir.Value) *ir.Inst { return b.SDiv(x, y) }, -35, 4, -8},
		{"srem", func(b *ir.Builder, x, y ir.Value) *ir.Inst { return b.SRem(x, y) }, -35, 4, -3},
		{"udiv", func(b *ir.Builder, x, y ir.Value) *ir.Inst { return b.UDiv(x, y) }, 35, 4, 8},
		{"urem", func(b *ir.Builder, x, y ir.Value) *ir.Inst { return b.URem(x, y) }, 35, 4, 3},
	} {
		f := ir.NewFunc(op.name, ir.I64, ir.I64, ir.I64)
		b := ir.NewBuilder(f)
		b.Ret(op.build(b, f.Params[0], f.Params[1]))
		got, _ := compileAndRun(t, emu.NewMemory(0x1000000), f, []uint64{uint64(op.a), uint64(op.b)}, nil)
		if int64(got) != op.expect {
			t.Errorf("%s(%d,%d) = %d, want %d", op.name, op.a, op.b, int64(got), op.expect)
		}
	}
}

func TestCompileManyValuesSpill(t *testing.T) {
	// More live values than registers forces spilling.
	f := ir.NewFunc("many", ir.I64, ir.I64)
	b := ir.NewBuilder(f)
	var vals []ir.Value
	for k := 1; k <= 20; k++ {
		vals = append(vals, b.Mul(f.Params[0], ir.Int(ir.I64, uint64(k))))
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = b.Xor(acc, v)
	}
	// Use the early values again so they stay live across all the muls.
	acc = b.Add(acc, vals[0])
	acc = b.Add(acc, vals[1])
	b.Ret(acc)

	got, _ := compileAndRun(t, emu.NewMemory(0x1000000), f, []uint64{13}, nil)
	var want uint64
	var vs []uint64
	for k := 1; k <= 20; k++ {
		vs = append(vs, 13*uint64(k))
	}
	want = vs[0]
	for _, v := range vs[1:] {
		want ^= v
	}
	want += vs[0] + vs[1]
	if got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}
