// Package crosstest provides differential validation across the
// reproduction's execution paths: randomly generated x86-64 programs are
// run (1) natively on the emulator, (2) lifted and interpreted as IR,
// (3) lifted, optimized at -O3, and interpreted, (4) lifted, optimized, and
// JIT-compiled back to machine code, (5) identity-rewritten by DBrew, and
// (6) compiled by the fastpath single-pass baseline backend — all six must
// agree bit-for-bit on every input.
//
// The generator emits structured random programs (straight-line ALU and SSE
// blocks, counted loops, conditional diamonds, memory traffic on a scratch
// buffer) covering the instruction subset the corpus kernels use.
package crosstest

import (
	"fmt"
	"math/rand"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// Feature is a bitmask of optional generator shapes beyond the baseline
// instruction mix. Features gate idioms that not every execution path
// supports (the lifter and fastpath reject indirect branches, for example),
// so masked programs run through the relaxed differential harness that
// classifies those rejections instead of failing on them.
type Feature uint32

const (
	// FeatIndirect emits computed gotos: case addresses stored into an
	// in-memory table, then an indirect jmp through the table.
	FeatIndirect Feature = 1 << iota
	// FeatRepString emits rep movsb / rep stosb blocks on the scratch
	// buffer.
	FeatRepString
	// FeatNestedLoop emits two adjacent counted loops re-entered by an
	// outer loop — the shape whose traces hand off through the
	// trace-to-trace link cache.
	FeatNestedLoop
	// FeatFPLoop emits the stencil idiom: a counted loop that walks doubles
	// in the scratch buffer with scalar SSE2 loads, combines each with a
	// coefficient from memory and accumulates — the loop shape the trace
	// tier compiles with its XMM lane model.
	FeatFPLoop
)

// Program is one generated test program.
type Program struct {
	Code []byte
	// UsesFP selects the XMM0-result convention.
	UsesFP bool
	Seed   int64
	Mask   Feature
	Desc   string
}

// Sig returns the program's ABI signature: f(i64, i64, ptr) -> i64/f64.
// The pointer argument addresses a scratch buffer the program may read and
// write within [0, ScratchSize).
func (p *Program) Sig() abi.Signature {
	ret := abi.ClassInt
	if p.UsesFP {
		ret = abi.ClassF64
	}
	return abi.Signature{Params: []abi.Class{abi.ClassInt, abi.ClassInt, abi.ClassPtr}, Ret: ret}
}

// ScratchSize is the size of the memory window programs may touch.
const ScratchSize = 256

// gen carries generation state.
type gen struct {
	r *rand.Rand
	b *asm.Builder
	// pool of registers holding integer values the generator may use.
	live []x86.Reg
	// fp tracks whether XMM0..XMM3 hold initialized doubles.
	fpLive int
	depth  int
	mask   Feature
}

// Generate builds a random program from the seed with no optional features.
func Generate(seed int64) (*Program, error) { return GenerateWithMask(seed, 0) }

// GenerateWithMask builds a random program from the seed with the given
// feature shapes enabled. A zero mask produces bit-identical programs to
// Generate for the same seed: the extra chunk kinds only widen the random
// choice when their feature bit is set.
func GenerateWithMask(seed int64, mask Feature) (*Program, error) {
	r := rand.New(rand.NewSource(seed))
	g := &gen{r: r, b: asm.NewBuilder(), mask: mask}

	// Initial values: rax := rdi, rcx... keep args and derive more.
	// Register pool: rax, rcx, rsi?, r8, r9, r10, r11 (caller-saved).
	g.b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
	g.b.I(x86.MOV, x86.R64(x86.R8), x86.R64(x86.RSI))
	g.b.I(x86.MOV, x86.R64(x86.R9), x86.Imm(int64(r.Uint32()), 8))
	g.live = []x86.Reg{x86.RAX, x86.R8, x86.R9}

	usesFP := r.Intn(3) == 0
	if usesFP {
		// Seed xmm0/xmm1 from integer state.
		g.b.I(x86.CVTSI2SD, x86.X(x86.XMM0), x86.R64(x86.RAX))
		g.b.I(x86.CVTSI2SD, x86.X(x86.XMM1), x86.R64(x86.R8))
		g.fpLive = 2
	}

	n := 3 + r.Intn(5)
	for i := 0; i < n; i++ {
		g.emitChunk(usesFP)
	}

	if usesFP {
		// Fold integer state into the FP result for coverage.
		g.b.I(x86.CVTSI2SD, x86.X(x86.XMM2), x86.R64(g.pick()))
		g.b.I(x86.ADDSD, x86.X(x86.XMM0), x86.X(x86.XMM2))
	} else {
		// Merge all live registers into rax.
		for _, reg := range g.live[1:] {
			g.b.I(x86.XOR, x86.R64(x86.RAX), x86.R64(reg))
		}
	}
	g.b.Ret()

	code, _, err := g.b.Assemble(0x400000)
	if err != nil {
		return nil, err
	}
	return &Program{Code: code, UsesFP: usesFP, Seed: seed, Mask: mask,
		Desc: fmt.Sprintf("seed=%d chunks=%d fp=%v mask=%#x", seed, n, usesFP, uint32(mask))}, nil
}

func (g *gen) pick() x86.Reg { return g.live[g.r.Intn(len(g.live))] }

// scratchOp returns a memory operand within the scratch buffer (pointed to
// by rdx, which callers must not clobber).
func (g *gen) scratchOp(size uint8) x86.Operand {
	slots := (ScratchSize - 16) / 8
	off := int32(8 * g.r.Intn(slots))
	return x86.MemBD(size, x86.RDX, off)
}

// features returns the enabled optional chunk kinds in fixed order, so the
// mapping from random index to shape is stable per mask.
func (g *gen) features() []Feature {
	var fs []Feature
	for _, f := range []Feature{FeatIndirect, FeatRepString, FeatNestedLoop, FeatFPLoop} {
		if g.mask&f != 0 {
			fs = append(fs, f)
		}
	}
	return fs
}

// emitChunk appends one random structure. Feature chunks occupy indices 8+,
// so a zero mask draws from the same range (and therefore the same random
// bit stream) as before features existed.
func (g *gen) emitChunk(fp bool) {
	fs := g.features()
	k := g.r.Intn(8 + len(fs))
	if k >= 8 {
		switch fs[k-8] {
		case FeatIndirect:
			g.emitIndirect()
		case FeatRepString:
			g.emitRepString()
		case FeatNestedLoop:
			g.emitAdjacentLoops()
		case FeatFPLoop:
			g.emitFPLoop()
		}
		return
	}
	switch k {
	case 0:
		g.emitALU()
	case 1:
		g.emitALU()
		g.emitALU()
	case 2:
		g.emitMem()
	case 3:
		if g.depth < 2 {
			g.emitLoop(fp)
		} else {
			g.emitALU()
		}
	case 4:
		g.emitDiamond()
	case 5:
		if fp {
			g.emitFP()
		} else {
			g.emitALU()
		}
	case 6:
		g.emitNarrow()
	case 7:
		g.emitCondOps()
	}
}

// emitALU appends one integer ALU instruction on live registers.
func (g *gen) emitALU() {
	d := g.pick()
	s := g.pick()
	imm := int64(int32(g.r.Uint32()))
	switch g.r.Intn(10) {
	case 0:
		g.b.I(x86.ADD, x86.R64(d), x86.R64(s))
	case 1:
		g.b.I(x86.SUB, x86.R64(d), x86.R64(s))
	case 2:
		g.b.I(x86.ADD, x86.R64(d), x86.Imm(imm%1000, 8))
	case 3:
		g.b.I(x86.XOR, x86.R64(d), x86.R64(s))
	case 4:
		g.b.I(x86.AND, x86.R64(d), x86.Imm(imm|0xFF, 8))
	case 5:
		g.b.I(x86.OR, x86.R64(d), x86.R64(s))
	case 6:
		g.b.I(x86.IMUL3, x86.R64(d), x86.R64(s), x86.Imm(int64(g.r.Intn(64)+1), 8))
	case 7:
		g.b.I(x86.SHL, x86.R64(d), x86.Imm(int64(g.r.Intn(31)+1), 1))
	case 8:
		g.b.I(x86.SHR, x86.R64(d), x86.Imm(int64(g.r.Intn(31)+1), 1))
	case 9:
		g.b.I(x86.LEA, x86.R64(d), x86.MemBIS(8, s, g.pick(), uint8(1<<g.r.Intn(4)), int32(imm%256)))
	}
}

// emitNarrow exercises sub-register widths and extensions.
func (g *gen) emitNarrow() {
	d := g.pick()
	s := g.pick()
	switch g.r.Intn(5) {
	case 0:
		g.b.I(x86.MOV, x86.R32(d), x86.R32(s)) // zeroes upper half
	case 1:
		g.b.I(x86.MOVZX, x86.R64(d), x86.R8L(s))
	case 2:
		g.b.I(x86.MOVSX, x86.R64(d), x86.R8L(s))
	case 3:
		g.b.I(x86.ADD, x86.R32(d), x86.R32(s))
	case 4:
		g.b.I(x86.MOVSXD, x86.R64(d), x86.R32(s))
	}
}

// emitMem appends a store + load pair on the scratch buffer.
func (g *gen) emitMem() {
	v := g.pick()
	g.b.I(x86.MOV, g.scratchOp(8), x86.R64(v))
	d := g.pick()
	g.b.I(x86.MOV, x86.R64(d), g.scratchOp(8))
}

// emitFP appends SSE double arithmetic on xmm0/xmm1 (+ scratch loads).
func (g *gen) emitFP() {
	ops := []x86.Op{x86.ADDSD, x86.SUBSD, x86.MULSD}
	op := ops[g.r.Intn(len(ops))]
	switch g.r.Intn(3) {
	case 0:
		g.b.I(op, x86.X(x86.XMM0), x86.X(x86.XMM1))
	case 1:
		g.b.I(x86.MOVSD_X, g.scratchOp(8), x86.X(x86.XMM0))
		g.b.I(op, x86.X(x86.XMM1), g.scratchOp(8))
	case 2:
		g.b.I(x86.CVTSI2SD, x86.X(x86.XMM1), x86.R64(g.pick()))
		g.b.I(op, x86.X(x86.XMM0), x86.X(x86.XMM1))
	}
}

// emitLoop appends a bounded counted loop whose body is a couple of ALU ops.
func (g *gen) emitLoop(fp bool) {
	g.depth++
	defer func() { g.depth-- }()
	// for (r10 = K; r10 != 0; r10--) body. The range deliberately
	// straddles RunNative's trace-tier hot threshold: short loops stay on
	// the block engine, longer ones get recorded, compiled, and finish
	// inside a trace.
	iters := int64(g.r.Intn(12) + 1)
	g.b.I(x86.MOV, x86.R64(x86.R10), x86.Imm(iters, 8))
	loop := g.b.NewLabel()
	g.b.Bind(loop)
	g.emitALU()
	if fp && g.r.Intn(2) == 0 {
		g.emitFP()
	}
	g.b.I(x86.SUB, x86.R64(x86.R10), x86.Imm(1, 8))
	g.b.Jcc(x86.CondNE, loop)
}

// emitCondOps appends flag-consuming data instructions: cmp followed by
// cmov/setcc/adc/sbb, exercising the per-flag lifting and DBrew's partial
// flag knowledge.
func (g *gen) emitCondOps() {
	a, b := g.pick(), g.pick()
	d := g.pick()
	conds := []x86.Cond{x86.CondE, x86.CondNE, x86.CondL, x86.CondGE, x86.CondB, x86.CondA}
	c := conds[g.r.Intn(len(conds))]
	g.b.I(x86.CMP, x86.R64(a), x86.R64(b))
	switch g.r.Intn(4) {
	case 0:
		g.b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: c, Dst: x86.R64(d), Src: x86.R64(a)})
	case 1:
		g.b.Emit(x86.Inst{Op: x86.SETCC, Cond: c, Dst: x86.R8L(d)})
		g.b.I(x86.MOVZX, x86.R64(d), x86.R8L(d))
	case 2:
		g.b.I(x86.ADC, x86.R64(d), x86.R64(a))
	case 3:
		g.b.I(x86.SBB, x86.R64(d), x86.Imm(int64(g.r.Intn(100)), 8))
	}
}

// emitDiamond appends an if/else on a data-dependent condition.
func (g *gen) emitDiamond() {
	a, b := g.pick(), g.pick()
	conds := []x86.Cond{x86.CondE, x86.CondNE, x86.CondL, x86.CondGE, x86.CondB, x86.CondA, x86.CondLE, x86.CondS}
	c := conds[g.r.Intn(len(conds))]
	els := g.b.NewLabel()
	done := g.b.NewLabel()
	g.b.I(x86.CMP, x86.R64(a), x86.R64(b))
	g.b.Jcc(c, els)
	g.emitALU()
	g.b.Jmp(done)
	g.b.Bind(els)
	g.emitALU()
	g.b.Bind(done)
}

// emitIndirect appends a computed goto: the absolute addresses of two case
// labels are stored into an in-memory table at the top of the scratch buffer
// (above the slots scratchOp hands out, so random stores cannot clobber it),
// then an indirect jmp selects one by a data-dependent bit. This is the
// jump-table idiom compilers emit for dense switches; the lifter, DBrew, and
// fastpath reject it, so masked programs go through the relaxed harness.
func (g *gen) emitIndirect() {
	c0 := g.b.NewLabel()
	c1 := g.b.NewLabel()
	done := g.b.NewLabel()
	g.b.MovLabel(x86.R11, c0)
	g.b.I(x86.MOV, x86.MemBD(8, x86.RDX, ScratchSize-16), x86.R64(x86.R11))
	g.b.MovLabel(x86.R11, c1)
	g.b.I(x86.MOV, x86.MemBD(8, x86.RDX, ScratchSize-8), x86.R64(x86.R11))
	g.b.I(x86.MOV, x86.R64(x86.R11), x86.R64(g.pick()))
	g.b.I(x86.AND, x86.R64(x86.R11), x86.Imm(1, 8))
	g.b.I(x86.JMPIndirect, x86.MemBIS(8, x86.RDX, x86.R11, 8, ScratchSize-16))
	g.b.Bind(c0)
	g.emitALU()
	g.b.Jmp(done)
	g.b.Bind(c1)
	g.emitALU()
	g.b.Bind(done)
}

// emitRepString appends a rep movsb or rep stosb block on the scratch
// buffer, then folds one destination byte back into a live register so the
// string op affects the architectural result. rsi/rdi/rcx are outside the
// register pool, so clobbering them is safe.
func (g *gen) emitRepString() {
	count := int64(g.r.Intn(24) + 1)
	srcOff := int32(8 * g.r.Intn(8))    // 0..56
	dstOff := int32(64 + 8*g.r.Intn(8)) // 64..120
	g.b.I(x86.LEA, x86.R64(x86.RDI), x86.MemBD(8, x86.RDX, dstOff))
	g.b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(count, 8))
	if g.r.Intn(2) == 0 {
		g.b.I(x86.LEA, x86.R64(x86.RSI), x86.MemBD(8, x86.RDX, srcOff))
		g.b.I(x86.REPMOVSB)
	} else {
		g.b.I(x86.REPSTOSB) // stores AL; rax holds live pool state
	}
	d := g.pick()
	g.b.I(x86.MOV, x86.R64(x86.R11), x86.MemBD(8, x86.RDX, dstOff))
	g.b.I(x86.AND, x86.R64(x86.R11), x86.Imm(0xFF, 8))
	g.b.I(x86.ADD, x86.R64(d), x86.R64(x86.R11))
}

// emitAdjacentLoops appends the trace-linking idiom: two counted do-while
// loops placed back to back so the first loop's not-taken backedge falls
// through directly onto the second loop's head, the pair re-entered by a
// short outer loop. Under RunNative's thresholds both inner loops compile
// traces on the first outer pass; on the second, the first trace's guard
// exit lands exactly on the second trace's head and the handoff goes
// through the trace-to-trace link cache instead of block dispatch.
func (g *gen) emitAdjacentLoops() {
	i1 := int64(g.r.Intn(5) + 4) // 4..8: enough iterations to record,
	i2 := int64(g.r.Intn(5) + 4) // compile, and enter each inner trace
	g.b.I(x86.MOV, x86.R64(x86.R11), x86.Imm(2, 8))
	top := g.b.NewLabel()
	g.b.Bind(top)
	// Both inner counters initialize before the first loop: an instruction
	// between the loops would become the first guard exit's target and the
	// handoff would miss the second trace's head.
	g.b.I(x86.MOV, x86.R64(x86.R10), x86.Imm(i1, 8))
	g.b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(i2, 8))
	l1 := g.b.NewLabel()
	g.b.Bind(l1)
	g.emitALU()
	g.b.I(x86.SUB, x86.R64(x86.R10), x86.Imm(1, 8))
	g.b.Jcc(x86.CondNE, l1) // fallthrough == second loop head
	l2 := g.b.NewLabel()
	g.b.Bind(l2)
	g.emitALU()
	g.b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
	g.b.Jcc(x86.CondNE, l2)
	g.b.I(x86.SUB, x86.R64(x86.R11), x86.Imm(1, 8))
	g.b.Jcc(x86.CondNE, top)
}

// emitFPLoop appends a scalar-double accumulate over the scratch buffer:
// n doubles and one coefficient, converted from live integer state (so every
// value is finite and the only NaN a run can produce is the default one,
// whatever order a path evaluates its operands in), are stored to adjacent
// slots; a counted loop then loads each, combines it with the coefficient
// from memory, and accumulates in xmm4; the sum lands back in the buffer,
// where every differential path compares it. Six or more iterations, so
// under RunNative's thresholds the loop is recorded, compiled and finishes
// inside its trace. r10/r11 and xmm4/xmm5 are outside every register pool.
func (g *gen) emitFPLoop() {
	n := 6 + g.r.Intn(6)
	slots := (ScratchSize - 16) / 8
	base := int32(8 * g.r.Intn(slots-n))
	coef := x86.MemBD(8, x86.RDX, base+int32(8*n))
	for i := 0; i <= n; i++ {
		g.b.I(x86.CVTSI2SD, x86.X(x86.XMM5), x86.R64(g.pick()))
		g.b.I(x86.MOVSD_X, x86.MemBD(8, x86.RDX, base+int32(8*i)), x86.X(x86.XMM5))
	}
	ops := []x86.Op{x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD}
	op := ops[g.r.Intn(len(ops))]
	g.b.I(x86.LEA, x86.R64(x86.R11), x86.MemBD(8, x86.RDX, base))
	g.b.I(x86.MOV, x86.R64(x86.R10), x86.Imm(int64(n), 8))
	g.b.I(x86.PXOR, x86.X(x86.XMM4), x86.X(x86.XMM4))
	loop := g.b.NewLabel()
	g.b.Bind(loop)
	g.b.I(x86.MOVSD_X, x86.X(x86.XMM5), x86.MemBD(8, x86.R11, 0))
	g.b.I(op, x86.X(x86.XMM5), coef)
	g.b.I(x86.ADDSD, x86.X(x86.XMM4), x86.X(x86.XMM5))
	g.b.I(x86.ADD, x86.R64(x86.R11), x86.Imm(8, 8))
	g.b.I(x86.SUB, x86.R64(x86.R10), x86.Imm(1, 8))
	g.b.Jcc(x86.CondNE, loop)
	g.b.I(x86.MOVSD_X, x86.MemBD(8, x86.RDX, base), x86.X(x86.XMM4))
}

// Place loads the program into a fresh memory image with a scratch buffer
// and returns (memory, entry, scratch address).
func (p *Program) Place() (*emu.Memory, uint64, uint64, error) {
	mem := emu.NewMemory(0x10000000)
	if _, err := mem.MapBytes(0x400000, p.Code, "prog"); err != nil {
		return nil, 0, 0, err
	}
	scratch := mem.Alloc(ScratchSize, 16, "scratch")
	return mem, 0x400000, scratch.Start, nil
}

// RunNative executes the program on the emulator and returns (rax or xmm0
// bits, final scratch contents). The trace tier runs with aggressive
// thresholds so the generator's short counted loops cross them: every
// differential comparison then also covers record → compile → trace-VM
// execution (and O3 recompilation) against the lifted pipelines, not just
// the interpreter and block engine.
func RunNative(mem *emu.Memory, entry, scratch uint64, p *Program, a, b uint64) (uint64, []byte, error) {
	m := emu.NewMachine(mem)
	m.TraceOpts = emu.TraceOptions{HotThreshold: 2, O3Threshold: 4}
	res, err := m.Call(entry, emu.CallArgs{Ints: []uint64{a, b, scratch}}, 2_000_000)
	if err != nil {
		return 0, nil, err
	}
	if p.UsesFP {
		res = m.XMM[0].Lo
	}
	buf, err := mem.Read(scratch, ScratchSize)
	return res, buf, err
}

// resetScratch zeroes the scratch window between runs.
func ResetScratch(mem *emu.Memory, scratch uint64) error {
	b, err := mem.Bytes(scratch, ScratchSize)
	if err != nil {
		return err
	}
	for i := range b {
		b[i] = 0
	}
	return nil
}
