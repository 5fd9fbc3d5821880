package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	dbrewllvm "repro"
	"repro/internal/bench"
	"repro/internal/crosstest"
	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/lift"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

var (
	structures = bench.AllStructures
	structName = map[bench.Structure]string{bench.Direct: "direct", bench.Flat: "struct", bench.Sorted: "sorted"}
	kinds      = []bench.Kind{bench.Element, bench.Line}
)

// image is the Sec. VI workload — kernels, the 4-point stencil in both
// layouts, source and destination matrix — inside a root Engine, with the
// source matrix interior drawn from the seed (seed 0 keeps bench.Workload's
// fixed pattern). The Go reference stencil.Stencil.Apply over ref is the
// oracle for every code variant.
type image struct {
	w   *bench.Workload
	eng *dbrewllvm.Engine
	ref []float64
}

func newImage(sz int, seed int64) (*image, error) {
	w, err := bench.NewWorkload(sz)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		for r := 1; r < sz-1; r++ {
			for c := 1; c < sz-1; c++ {
				w.M1.Set(r, c, rng.Float64())
			}
		}
	}
	eng := dbrewllvm.NewEngine()
	eng.Mem = w.Mem
	return &image{w: w, eng: eng, ref: w.M1.Slice()}, nil
}

// target builds the compile-route input for one Sec. VI kernel.
func (im *image) target(kind bench.Kind, s bench.Structure) *target {
	orig := im.w.SpecInput(kind, s, bench.Native)
	spec := im.w.SpecInput(kind, s, bench.DBrewLLVM)
	header := spec.StencilSize
	if s == bench.Sorted {
		header = im.w.SortedHeader
	}
	c := im.w.Corpus
	return &target{
		row:   fmt.Sprintf("%s_%s", structName[s], kind),
		eng:   im.eng,
		entry: orig.Entry,
		spec:  spec.Entry,
		sig:   spec.Sig,
		fix:   &fixedPtr{addr: spec.StencilAddr, size: spec.StencilSize, header: header},
		declare: func(l *lift.Lifter) {
			l.Declare(c.DirectElem, "direct_elem", kernels.ElemSig)
			l.Declare(c.FlatElem, "flat_elem", kernels.ElemSig)
			l.Declare(c.SortedElem, "sorted_elem", kernels.ElemSig)
		},
	}
}

// kernelArgs are the arguments of a Sec. VI kernel at interior row, for the
// code variant's calling convention: element kernels and the per-element
// driver take (s, m1, m2, idx[, n]); dropFixed variants lose s.
func (im *image) kernelArgs(stencilAddr uint64, row int, withN, dropFixed bool) []uint64 {
	w := im.w
	args := []uint64{stencilAddr, w.M1.Region.Start, w.M2.Region.Start, uint64(row*w.SZ + 1)}
	if withN {
		args = append(args, uint64(w.SZ-2))
	}
	if dropFixed {
		args = args[1:]
	}
	return args
}

// clearOut zeroes the destination matrix, so a kernel that stores nothing
// cannot pass on the previous operation's values.
func (im *image) clearOut() {
	d := im.w.M2.Region.Data
	for i := range d {
		d[i] = 0
	}
}

// checkCells compares n destination cells starting at (row, 1) against the
// Go reference.
func (im *image) checkCells(row, n int) error {
	w := im.w
	for col := 1; col <= n; col++ {
		want := w.Stencil.Apply(im.ref, w.SZ, row*w.SZ+col)
		if got := w.M2.Get(row, col); math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("cell (%d,%d) = %g, want %g", row, col, got, want)
		}
	}
	return nil
}

// runKernel executes one compiled Sec. VI variant on an interior row and
// checks what it stored: the whole row for a line kernel, the first cell for
// an element kernel. It returns the modelled cycles of the call.
func (im *image) runKernel(kind bench.Kind, t *target, c compiled, row int) (float64, error) {
	im.clearOut()
	m := emu.NewMachine(im.eng.Mem)
	args := im.kernelArgs(t.fix.addr, row, kind == bench.Line, c.dropFixed)
	if _, err := m.Call(c.entry, emu.CallArgs{Ints: args}, 0); err != nil {
		return 0, err
	}
	n := 1
	if kind == bench.Line {
		n = im.w.SZ - 2
	}
	return m.Cycles, im.checkCells(row, n)
}

// buildElemDriver assembles the per-element call loop of the paper's
// element-kernel measurements: for n cells of a row, call target(s, m1, m2,
// idx). It is placed near the kernel so the rel32 call reaches.
func buildElemDriver(mem *emu.Memory, target uint64) (uint64, error) {
	b := asm.NewBuilder()
	loop, done := b.NewLabel(), b.NewLabel()
	saved := []x86.Reg{x86.RBX, x86.R12, x86.R13, x86.R14, x86.R15}
	args := []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8}
	b.I(x86.TEST, x86.R64(x86.R8), x86.R64(x86.R8))
	b.Jcc(x86.CondLE, done)
	for _, r := range saved {
		b.I(x86.PUSH, x86.R64(r))
	}
	for i, r := range saved {
		b.I(x86.MOV, x86.R64(r), x86.R64(args[i]))
	}
	b.Bind(loop)
	for i := 0; i < 4; i++ {
		b.I(x86.MOV, x86.R64(args[i]), x86.R64(saved[i]))
	}
	b.Call(target)
	b.I(x86.ADD, x86.R64(x86.R14), x86.Imm(1, 8))
	b.I(x86.SUB, x86.R64(x86.R15), x86.Imm(1, 8))
	b.Jcc(x86.CondNE, loop)
	for i := len(saved) - 1; i >= 0; i-- {
		b.I(x86.POP, x86.R64(saved[i]))
	}
	b.Bind(done)
	b.Ret()
	code, _, err := b.Assemble(target) // sizing pass
	if err != nil {
		return 0, err
	}
	region := mem.Alloc(len(code), 16, "bench.elem_driver")
	if code, _, err = b.Assemble(region.Start); err != nil {
		return 0, err
	}
	copy(region.Data, code)
	return region.Start, nil
}

// program is one generated crosstest function with its reference outcomes:
// result and scratch bytes of the per-instruction interpreter on the original
// code, for inputs drawn from the run's seed.
type program struct {
	p      *crosstest.Program
	name   string
	inputs [][2]uint64
	want   []outcome
}

type outcome struct {
	ret     uint64
	scratch []byte
}

// placed is a program loaded into a fresh address space.
type placed struct {
	*program
	eng     *dbrewllvm.Engine
	entry   uint64
	scratch uint64
}

func (p *program) place() (*placed, error) {
	mem, entry, scratch, err := p.p.Place()
	if err != nil {
		return nil, err
	}
	eng := dbrewllvm.NewEngine()
	eng.Mem = mem
	return &placed{program: p, eng: eng, entry: entry, scratch: scratch}, nil
}

func (pl *placed) target() *target {
	return &target{row: pl.name, eng: pl.eng, entry: pl.entry, spec: pl.entry, sig: pl.p.Sig()}
}

// run executes entry on input i and returns what the program left behind.
func (pl *placed) run(entry uint64, i int, interp bool) (outcome, error) {
	if err := crosstest.ResetScratch(pl.eng.Mem, pl.scratch); err != nil {
		return outcome{}, err
	}
	m := emu.NewMachine(pl.eng.Mem)
	m.Interp = interp
	in := pl.inputs[i]
	ret, err := m.Call(entry, emu.CallArgs{Ints: []uint64{in[0], in[1], pl.scratch}}, 2_000_000)
	if err != nil {
		return outcome{}, err
	}
	if pl.p.UsesFP {
		ret = m.XMM[0].Lo
	}
	buf, err := pl.eng.Mem.Read(pl.scratch, crosstest.ScratchSize)
	return outcome{ret: ret, scratch: buf}, err
}

// check runs compiled code on every input against the interpreter reference.
func (pl *placed) check(entry uint64) error {
	for i := range pl.inputs {
		got, err := pl.run(entry, i, false)
		if err != nil {
			return err
		}
		if got.ret != pl.want[i].ret || !bytes.Equal(got.scratch, pl.want[i].scratch) {
			return fmt.Errorf("input %d: result %#x, want %#x (or scratch differs)", i, got.ret, pl.want[i].ret)
		}
	}
	return nil
}

// programSet draws n nested-loop crosstest programs and their inputs from
// the seed. Seeds share no program: generator seeds are 1000·seed + i, so
// -seed 2 is a held-out set for a claim made on the default one.
//
// The draw is stratified: one program in eight is straight-line, the others
// branch (the generator's own mix is about 13 % straight-line). fastpath
// copies straight-line code in microseconds and lifts the rest in hundreds of
// them, so with a free mix the share of straight-line functions — 4 to 10 of
// 48 from seed to seed — would decide the timings more than any change to the
// program could. Which of the two a function is, is read off its code here,
// not asked of the compiler.
func programSet(n int, seed int64) ([]*program, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*program
	straight := (n + 7) / 8
	branchy := n - straight
	for i := 0; len(out) < n; i++ {
		gs := seed*1000 + int64(i)
		p, err := crosstest.GenerateWithMask(gs, crosstest.FeatNestedLoop)
		if err != nil {
			return nil, err
		}
		quota := &straight
		if branches, err := hasBranch(p.Code); err != nil {
			return nil, fmt.Errorf("xt%d: %w", gs, err)
		} else if branches {
			quota = &branchy
		}
		if *quota == 0 {
			continue
		}
		*quota--
		pr := &program{p: p, name: fmt.Sprintf("xt%d", gs),
			inputs: [][2]uint64{{rng.Uint64(), rng.Uint64()}, {rng.Uint64() & 0xff, rng.Uint64() & 0xff}}}
		pl, err := pr.place()
		if err != nil {
			return nil, err
		}
		for j := range pr.inputs {
			o, err := pl.run(pl.entry, j, true)
			if err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", pr.name, err)
			}
			pr.want = append(pr.want, o)
		}
		out = append(out, pr)
	}
	return out, nil
}

// hasBranch reports whether code transfers control anywhere before its
// final ret.
func hasBranch(code []byte) (bool, error) {
	for off := 0; off < len(code); {
		in, err := x86.Decode(code[off:], uint64(off))
		if err != nil {
			return false, err
		}
		off += in.Len
		if in.IsBranch() && !(in.Op == x86.RET && off == len(code)) {
			return true, nil
		}
	}
	return false, nil
}

// aluLoop is the 18-instruction loop kernel of internal/jit's
// BenchmarkEmuEngines (ALU chain, address arithmetic, a memory round trip, a
// compare-driven cmov): rdi = scratch buffer, rsi = iteration count.
func aluLoop(b *asm.Builder) {
	b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
	b.I(x86.MOV, x86.R64(x86.RDX), x86.Imm(0x9E3779B9, 8))
	b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RSI))
	loop := b.NewLabel()
	b.Bind(loop)
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDX))
	b.I(x86.XOR, x86.R64(x86.RDX), x86.R64(x86.RAX))
	b.I(x86.SHR, x86.R64(x86.RDX), x86.Imm(7, 1))
	b.I(x86.LEA, x86.R64(x86.R8), x86.MemBIS(8, x86.RAX, x86.RDX, 4, 13))
	b.I(x86.IMUL3, x86.R64(x86.R8), x86.R64(x86.R8), x86.Imm(0x85EB, 4))
	b.I(x86.AND, x86.R64(x86.R8), x86.Imm(0xFF8, 8))
	b.I(x86.MOV, x86.R64(x86.R9), x86.MemBIS(8, x86.RDI, x86.R8, 1, 0))
	b.I(x86.ADD, x86.R64(x86.R9), x86.R64(x86.RAX))
	b.I(x86.MOV, x86.MemBIS(8, x86.RDI, x86.R8, 1, 0), x86.R64(x86.R9))
	b.I(x86.MOV, x86.R64(x86.R10), x86.R64(x86.RDX))
	b.I(x86.SHL, x86.R64(x86.R10), x86.Imm(3, 1))
	b.I(x86.XOR, x86.R64(x86.RAX), x86.R64(x86.R10))
	b.I(x86.CMP, x86.R64(x86.RAX), x86.R64(x86.RDX))
	b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondB, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RDX)})
	b.I(x86.MOVZX, x86.R64(x86.R11), x86.R8L(x86.RDX))
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.R11))
	b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
	b.Jcc(x86.CondNE, loop)
	b.Ret()
}

// linkedLoops is the nested-loop linked kernel of BenchmarkEmuLinked: two
// adjacent counted loops whose traces hand off through the trace link cache,
// re-entered by an outer loop too large to record. rdi = scratch buffer
// (unused), rsi = outer iteration count.
func linkedLoops(b *asm.Builder) {
	const inner = 40
	b.I(x86.PUSH, x86.R64(x86.RBX))
	b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
	b.I(x86.MOV, x86.R64(x86.RBX), x86.R64(x86.RSI))
	top := b.NewLabel()
	b.Bind(top)
	b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(inner, 8))
	b.I(x86.MOV, x86.R64(x86.RDX), x86.Imm(inner, 8))
	l1 := b.NewLabel()
	b.Bind(l1)
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
	b.I(x86.XOR, x86.R64(x86.RAX), x86.Imm(0x3F, 8))
	b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
	b.Jcc(x86.CondNE, l1) // falls through onto the second loop's head
	l2 := b.NewLabel()
	b.Bind(l2)
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDX))
	b.I(x86.SHR, x86.R64(x86.RAX), x86.Imm(1, 1))
	b.I(x86.SUB, x86.R64(x86.RDX), x86.Imm(1, 8))
	b.Jcc(x86.CondNE, l2)
	b.I(x86.SUB, x86.R64(x86.RBX), x86.Imm(1, 8))
	b.Jcc(x86.CondNE, top)
	b.I(x86.POP, x86.R64(x86.RBX))
	b.Ret()
}

// guest is a stand-alone loop kernel in its own address space, called as
// f(buf, n). Its oracle is the interpreter on the same code and inputs.
type guest struct {
	mem   *emu.Memory
	entry uint64
	buf   *emu.Region
	n     uint64
}

func newGuest(build func(*asm.Builder), n uint64) (*guest, error) {
	const base = 0x5000
	b := asm.NewBuilder()
	build(b)
	code, _, err := b.Assemble(base)
	if err != nil {
		return nil, err
	}
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(base, code, "guest"); err != nil {
		return nil, err
	}
	return &guest{mem: mem, entry: base, buf: mem.Alloc(4096, 64, "buf"), n: n}, nil
}

// call zeroes the buffer and runs the kernel once on m.
func (g *guest) call(m *emu.Machine) (outcome, error) {
	for i := range g.buf.Data {
		g.buf.Data[i] = 0
	}
	ret, err := m.Call(g.entry, emu.CallArgs{Ints: []uint64{g.buf.Start, g.n}}, 0)
	return outcome{ret: ret, scratch: g.buf.Data}, err
}

// reference runs the kernel on the per-instruction interpreter.
func (g *guest) reference() (outcome, error) {
	m := emu.NewMachine(g.mem)
	m.Interp = true
	o, err := g.call(m)
	o.scratch = append([]byte(nil), o.scratch...)
	return o, err
}
