package lift

import (
	"fmt"
	"math/bits"

	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/x86"
)

// This file lifts a recorded superblock trace (emu.TraceRequest) into IR
// shaped as a counted loop:
//
//	entry:   br header
//	header:  phis (iteration counter, written registers, flag state)
//	         if ctr >= iterCap: exit at the loop head (budget cap)
//	body:    straight-line lifted instructions, split at every recorded
//	         conditional branch into a guard:
//	             recorded-taken:     if !cond -> side exit at fallthrough
//	             recorded-untaken:   if  cond -> side exit at target
//	backedge: ctr' = ctr+1; generation check -> exit at head; br header
//
// Every side exit is a call to a fresh void callee ("trace.exitN") whose
// arguments materialize the full architectural state at that point: the
// current value of every register the trace writes, the dynamic inputs of
// the symbolic flag recipe, and the iteration counter. The static part of
// the exit (instructions retired in the partial iteration, resume RIP, the
// flag-recipe shape) lives in the TraceExit side table, keyed by the call
// instruction — optimization passes rewrite arguments but never clone or
// remove a side-effecting call, so the keys stay stable.
//
// Flags are LAZY: no per-iteration flag IR is emitted. The lifter tracks
// the last flag-writing instruction, the IR values of its inputs to the
// integer kernel (the operands emu.IntOperands names) and one i1 for each
// flag the kernel passes through from the state before it (INC/DEC's CF, a
// shift's AF and, above a count of 1, its OF, IMUL's AF). Exits carry those
// values, and the VM recomputes the six flags once, at exit, with one
// emu.Int call. Loop-carried flag state uses six explicit i1 phis whose
// backedge values materialize the final state — they are emitted
// unconditionally and dead-code-eliminated whenever no exit or in-body
// condition consumes pre-first-flag-write state, which is the common case.
//
// XMM registers are modelled as a pair of i64 lanes (lo, hi) beside the 16
// GPRs: live-in parameters, header phis and exit arguments per written
// register, exactly like a GPR. The supported SSE2 subset is the scalar and
// packed double arithmetic the Sec. VI kernels use — MOVSD, ADDSD/SUBSD/
// MULSD/DIVSD with a register or 8-byte memory source, ADDPD/SUBPD/MULPD with
// a register or 16-byte memory source, MOVUPD/MOVAPD loads and stores of 16
// bytes — plus the register forms of PXOR/XORPD/XORPS, MOVAPD/MOVUPD/MOVAPS/
// MOVDQA and MOVQ (xmm-xmm, and xmm-r64 either way: how the JIT materializes
// a double constant), which only shuffle or xor lanes. Arithmetic is
// fadd/fsub/fmul/fdiv on the bitcast lanes — the low lane, or each lane in
// turn with the destination's lane as the first operand — with no fast-math
// flag, so the optimizer may fold nothing the hardware would not compute.
// None of them touches the flags. The flag-writing compares stay out: an exit
// recomputes flags through the integer kernel, which has no entry for them.
//
// A trace may run through direct calls and their returns. CALL, PUSH r64,
// POP r64 and RET lower onto the same 8-byte intrinsics at rsp: CALL stores
// its constant return address, and RET guards the address it pops against
// the recorded successor, leaving through its pre-instruction exit when the
// callee returned elsewhere. None of them touches the flags.
//
// Memory accesses become intrinsic calls ("trace.loadN"/"trace.storeN"),
// one per access: a 16-byte access is a single site whose load yields its
// high lane through "trace.load16hi". An access that cannot be performed
// in-trace — unmapped address, a store into a watched (code-bearing)
// region, or a MOVAPD at an address that is not 16-byte aligned —
// deoptimizes BEFORE the owning instruction executes, so the block engine
// re-executes it with exact fault and self-modification semantics. An
// access that may carry a memory penalty runs in-trace and is logged; the
// caller charges the logged penalties after each step's cost, as the block
// engine does (emu.TracePenalties). The stack slot of a PUSH, POP, CALL or
// RET is never logged, since the emulator charges it no penalty
// (TraceMem.Stack). A CMOVcc reads a memory source only when it moves, as
// the emulator does, so that neither a fault nor a penalty of an untaken
// move exists in the trace.

// TraceExit is the static side of one exit call. Argument layout of the
// call: current values of Prog.RegIdx registers in order, then the (lo, hi)
// lanes of Prog.XMMIdx registers in order, then NArgs flag args, then the
// iteration counter.
type TraceExit struct {
	// Steps is the number of instructions of the current iteration retired
	// before the exit (0 for loop-header exits; k for a deopt before
	// instruction k; k+1 for a guard exit after branch k).
	Steps uint64
	// RIP is the address the block engine resumes at.
	RIP uint64

	// In is the last flag-writing instruction before the exit, nil when the
	// iteration has not written a flag yet. The flag args are its kernel
	// inputs (emu.IntOperands' a, then b when it has one), then one i1 for
	// each flag of Keep, in CF..OF order: the flags In passes through from
	// the state before it, or all six when In is nil.
	In   *x86.Inst
	Keep x86.FlagSet
}

// NArgs is the number of flag args the exit call carries.
func (e *TraceExit) NArgs() int { return flagState{in: e.In, keep: e.Keep}.nArgs() }

// TraceMem is the static side of one memory intrinsic: the access width,
// the step that performs it, and the deopt exit (a call in its own
// unreachable block) to take when the access cannot be performed in-trace.
type TraceMem struct {
	Size  int
	Write bool
	// Aligned marks a MOVAPD access, which deoptimizes at an address that
	// is not 16-byte aligned.
	Aligned bool
	// Stack marks the stack slot of a PUSH, POP, CALL or RET, which the
	// emulator charges no memory penalty.
	Stack bool
	Step  int
	Exit  *ir.Inst
	// Hi is the trace.load16hi call yielding the high lane of a 16-byte
	// load.
	Hi *ir.Inst
}

// TraceProgram is a lifted trace plus its side tables.
type TraceProgram struct {
	F *ir.Func
	// RegIdx lists the GPR indices the trace writes, in exit-argument and
	// write-back order.
	RegIdx []int
	// XMMIdx lists the XMM indices the trace writes, in exit-argument and
	// write-back order (two lanes each); XMMIn lists the ones it reads or
	// writes at all. Only those have parameters — the i-th's low lane is
	// parameter TraceParamXMM+2i, its high lane the next — which the
	// executor must load on entry; an integer trace carries none.
	XMMIdx, XMMIn []int
	// Exits maps each exit call to its static descriptor.
	Exits map[*ir.Inst]*TraceExit
	// Mems maps each memory intrinsic call to its descriptor.
	Mems map[*ir.Inst]*TraceMem
	// Backedge is the block whose execution must re-check the memory code
	// generation (taking GenExit on mismatch) before branching to header.
	Backedge *ir.Block
	// GenExit is the exit call for a failed generation check; its counter
	// argument is already the incremented value.
	GenExit *ir.Inst
	// Ctr is the iteration-counter phi of the loop header, and CapExit the
	// exit call of its iteration-cap check, the one normal way out of the
	// loop.
	Ctr      *ir.Inst
	CapExit  *ir.Inst
	NumSteps int
}

// Trace function parameter layout.
const (
	// TraceParamFlags is the index of the first of six i1 flag parameters
	// (CF, PF, AF, ZF, SF, OF) following the sixteen i64 GPR parameters.
	TraceParamFlags = 16
	// TraceParamCap is the index of the iteration-cap parameter.
	TraceParamCap = 22
	// TraceParamXMM is the index of the first XMM lane parameter: two i64
	// per TraceProgram.XMMIn register, so the total parameter count is
	// TraceParamXMM + 2*len(XMMIn).
	TraceParamXMM = 23
)

// flagState is the lazy flag state: the writer in and keep as in
// TraceExit, and args, the IR values of the exit's flag args.
type flagState struct {
	in   *x86.Inst
	keep x86.FlagSet
	args []ir.Value
}

// flagShape returns the static half of the flag state after writer in, or
// before the first write when in is nil. Which flags the writer passes
// through is the kernel's business: emu.IntKept asks it, with the
// writer's immediate input, if any, for its b.
func flagShape(in *x86.Inst) flagState {
	if in == nil {
		return flagState{keep: x86.AllFlags}
	}
	_, b, _, _ := emu.IntOperands(in)
	var imm uint64
	if b.Kind == x86.KImm {
		imm = uint64(b.Imm)
	}
	return flagState{in: in, keep: emu.IntKept(in, 0, imm)}
}

// nArgs is the number of flag args of the state's shape.
func (st flagState) nArgs() int {
	return kernelInputs(st.in) + bits.OnesCount8(uint8(st.keep))
}

// kept returns the arg carrying pass-through flag i.
func (st flagState) kept(i int) ir.Value {
	return st.args[kernelInputs(st.in)+bits.OnesCount8(uint8(st.keep)&(1<<i-1))]
}

// kernelInputs is the number of kernel inputs of flag writer in: none
// without a writer, one for a one-input opcode, two otherwise.
func kernelInputs(in *x86.Inst) int {
	if in == nil {
		return 0
	}
	if _, b, _, _ := emu.IntOperands(in); b.Kind == x86.KNone {
		return 1
	}
	return 2
}

// writesFlags reports whether in is a flag writer of the lazy state: an
// integer-kernel instruction that writes a flag. A shift whose count masks
// to 0 writes none.
func writesFlags(in *x86.Inst) bool {
	_, w := in.FlagEffects()
	_, _, _, ok := emu.IntOperands(in)
	return ok && w != 0
}

type traceLifter struct {
	req *emu.TraceRequest
	f   *ir.Func
	b   *ir.Builder
	p   *TraceProgram

	cur     [16]ir.Value
	written [16]bool
	regPhis [16]*ir.Inst

	curX     [16][2]ir.Value // XMM lanes (lo, hi), i64 each; nil if untouched
	inX      [16][2]ir.Value // live-in lane parameters of XMMIn registers
	writtenX [16]bool
	xmmPhis  [16][2]*ir.Inst

	flags      flagState
	flagPhis   [6]*ir.Inst
	recipePhis []*ir.Inst

	header  *ir.Block
	ctrPhi  *ir.Inst
	ctrNext ir.Value

	nextExit  int
	stepExits map[int]*ir.Inst // per-step shared deopt exit
	loadFns   map[int]*ir.Func
	storeFns  map[int]*ir.Func
	hiFn      *ir.Func
}

// The trace parameter order and the flag args' order both follow the
// package-wide flag component indices fCF..fOF (facets.go).

func sizeMask(size uint8) uint64 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	case 4:
		return 0xFFFFFFFF
	}
	return ^uint64(0)
}

// Trace lifts a recorded superblock into a TraceProgram, or reports that
// the recording contains an instruction the trace tier does not support.
func Trace(req *emu.TraceRequest) (*TraceProgram, error) {
	last, written, writtenX, usedX, err := scanTrace(req)
	if err != nil {
		return nil, err
	}
	l := &traceLifter{
		req: req,
		p: &TraceProgram{
			RegIdx:   nil,
			Exits:    make(map[*ir.Inst]*TraceExit),
			Mems:     make(map[*ir.Inst]*TraceMem),
			NumSteps: len(req.Steps),
		},
		written:   written,
		writtenX:  writtenX,
		stepExits: make(map[int]*ir.Inst),
		loadFns:   make(map[int]*ir.Func),
		storeFns:  make(map[int]*ir.Func),
	}
	for r := 0; r < 16; r++ {
		if written[r] {
			l.p.RegIdx = append(l.p.RegIdx, r)
		}
		if writtenX[r] {
			l.p.XMMIdx = append(l.p.XMMIdx, r)
		}
		if usedX[r] {
			l.p.XMMIn = append(l.p.XMMIn, r)
		}
	}

	ptypes := make([]*ir.Type, TraceParamXMM+2*len(l.p.XMMIn))
	for i := 0; i < 16; i++ {
		ptypes[i] = ir.I64
	}
	for i := 0; i < 6; i++ {
		ptypes[TraceParamFlags+i] = ir.I1
	}
	ptypes[TraceParamCap] = ir.I64
	for i := TraceParamXMM; i < len(ptypes); i++ {
		ptypes[i] = ir.I64
	}
	l.f = ir.NewFunc(fmt.Sprintf("trace_%x", req.Head), ir.Void, ptypes...)
	l.f.Addr = req.Head
	l.p.F = l.f
	l.b = ir.NewBuilder(l.f) // creates and enters the entry block
	entry := l.b.Cur
	l.header = l.f.NewBlock("header")
	l.b.Br(l.header)

	// Header: phis for the counter, every written register (both lanes of
	// an XMM register), the six explicit flags, and the flag args of the
	// final state.
	l.b.SetBlock(l.header)
	l.ctrPhi = l.b.Phi(ir.I64)
	for _, r := range l.p.RegIdx {
		l.regPhis[r] = l.b.Phi(ir.I64)
	}
	for _, r := range l.p.XMMIdx {
		l.xmmPhis[r] = [2]*ir.Inst{l.b.Phi(ir.I64), l.b.Phi(ir.I64)}
	}
	for i := 0; i < 6; i++ {
		l.flagPhis[i] = l.b.Phi(ir.I1)
	}
	shape := flagShape(last)
	if last == nil {
		l.recipePhis = l.flagPhis[:]
	} else {
		for i := 0; i < shape.nArgs(); i++ {
			ty := ir.I64
			if i >= kernelInputs(last) {
				ty = ir.I1
			}
			l.recipePhis = append(l.recipePhis, l.b.Phi(ty))
		}
	}

	// Architectural state at the loop head.
	for r := 0; r < 16; r++ {
		if l.written[r] {
			l.cur[r] = l.regPhis[r]
		} else {
			l.cur[r] = l.f.Params[r]
		}
	}
	for i, r := range l.p.XMMIn {
		for lane := 0; lane < 2; lane++ {
			l.inX[r][lane] = l.f.Params[TraceParamXMM+2*i+lane]
			if l.writtenX[r] {
				l.curX[r][lane] = l.xmmPhis[r][lane]
			} else {
				l.curX[r][lane] = l.inX[r][lane]
			}
		}
	}
	l.flags = flagShape(nil)
	for _, ph := range l.flagPhis {
		l.flags.args = append(l.flags.args, ph)
	}

	// Budget-cap exit: flags at the header are the final state carried
	// through the recipe phis. This exit can only execute from the second
	// header arrival on (the caller guarantees iterCap >= 1), by which
	// point the phis hold iteration values, never the entry-edge undefs.
	headState := shape
	for _, ph := range l.recipePhis {
		headState.args = append(headState.args, ph)
	}
	capCond := l.b.ICmp(ir.PredUGE, l.ctrPhi, l.f.Params[TraceParamCap])
	capExit := l.newExit(0, req.Head, l.ctrPhi, headState)
	l.p.Ctr, l.p.CapExit = l.ctrPhi, capExit
	body := l.f.NewBlock("")
	l.b.CondBr(capCond, capExit.Parent, body)
	l.b.SetBlock(body)

	// Lift the recorded path.
	for k := range req.Steps {
		if err := l.liftStep(k, &req.Steps[k]); err != nil {
			return nil, err
		}
	}

	// Backedge: bump the counter, then the generation check (performed by
	// the VM, not by IR — it has no IR-visible inputs), then loop.
	backedge := l.b.Cur
	l.p.Backedge = backedge
	l.ctrNext = l.b.Add(l.ctrPhi, ir.Int(ir.I64, 1))
	finalState := l.flags
	l.p.GenExit = l.newExit(0, req.Head, l.ctrNext, finalState)

	// Materialize the six flags of the final state for the explicit phis;
	// dead unless some exit or condition consumed pre-flag-write state.
	var mats [6]ir.Value
	for i := 0; i < 6; i++ {
		mats[i] = l.matFlagOf(finalState, i)
	}
	l.b.Br(l.header)

	// Wire up the phis.
	ir.AddIncoming(l.ctrPhi, ir.Int(ir.I64, 0), entry)
	ir.AddIncoming(l.ctrPhi, l.ctrNext, backedge)
	for _, r := range l.p.RegIdx {
		ir.AddIncoming(l.regPhis[r], l.f.Params[r], entry)
		ir.AddIncoming(l.regPhis[r], l.cur[r], backedge)
	}
	for _, r := range l.p.XMMIdx {
		for lane, ph := range l.xmmPhis[r] {
			ir.AddIncoming(ph, l.inX[r][lane], entry)
			ir.AddIncoming(ph, l.curX[r][lane], backedge)
		}
	}
	for i := 0; i < 6; i++ {
		ir.AddIncoming(l.flagPhis[i], l.f.Params[TraceParamFlags+i], entry)
		ir.AddIncoming(l.flagPhis[i], mats[i], backedge)
	}
	if last != nil {
		if finalState.in != last || len(finalState.args) != len(l.recipePhis) {
			return nil, fmt.Errorf("lift: trace flag state drifted (%d args, phis %d)", len(finalState.args), len(l.recipePhis))
		}
		for i, ph := range l.recipePhis {
			ir.AddIncoming(ph, ir.UndefOf(ph.Type()), entry)
			ir.AddIncoming(ph, finalState.args[i], backedge)
		}
	}
	return l.p, nil
}

// scanTrace rejects unsupported instructions and pre-computes the register
// write sets (GPR and XMM), the XMM registers referenced at all, and the
// last flag writer, whose flag state the header's recipe phis carry.
func scanTrace(req *emu.TraceRequest) (last *x86.Inst, written, writtenX, usedX [16]bool, err error) {
	for i := range req.Steps {
		in := req.Steps[i].In
		if isTraceSSE(in.Op) {
			if err = checkSSEOperands(in); err != nil {
				return
			}
			for _, o := range []x86.Operand{in.Dst, in.Src} {
				if o.Kind == x86.KReg && o.Reg.IsXMM() {
					usedX[o.Reg-x86.XMM0] = true
				}
			}
			switch d := in.Dst; {
			case d.Kind != x86.KReg:
			case d.Reg.IsXMM():
				writtenX[d.Reg-x86.XMM0] = true
			default:
				written[d.Reg] = true
			}
			continue
		}
		if err = checkOperands(in); err != nil {
			return
		}
		switch in.Op {
		case x86.CALL, x86.RET, x86.PUSH, x86.POP:
			if err = checkStackOp(in); err != nil {
				return
			}
			written[x86.RSP] = true
		case x86.NOP, x86.ENDBR64, x86.JMP, x86.JCC:
		case x86.MOV, x86.MOVZX, x86.MOVSX, x86.MOVSXD, x86.LEA, x86.NOT,
			x86.CMOVCC, x86.SETCC,
			x86.ADD, x86.SUB, x86.CMP, x86.AND, x86.OR, x86.XOR, x86.TEST,
			x86.INC, x86.DEC, x86.NEG, x86.IMUL, x86.IMUL3:
		case x86.SHL, x86.SHR, x86.SAR:
			if in.Src.Kind != x86.KImm {
				err = unsupported("dynamic shift count at %#x", in.Addr)
				return
			}
		default:
			err = unsupported("%v at %#x", in.Op, in.Addr)
			return
		}
		if writesFlags(in) {
			last = in
		}
		if writesReg(in) {
			written[in.Dst.Reg] = true
		}
	}
	return
}

// checkStackOp accepts CALL rel, bare RET, PUSH r64 and POP r64 other than
// rsp; every other form of them is refused.
func checkStackOp(in *x86.Inst) error {
	r64 := in.Dst.Kind == x86.KReg && in.Dst.Size == 8
	var ok bool
	switch in.Op {
	case x86.CALL:
		ok = in.Dst.Kind == x86.KImm
	case x86.RET:
		ok = in.Dst.Kind == x86.KNone
	case x86.PUSH:
		ok = r64
	case x86.POP:
		ok = r64 && in.Dst.Reg != x86.RSP
	}
	if !ok {
		return unsupported("operand form of %v at %#x", in, in.Addr)
	}
	return nil
}

// unsupported builds the error for a recording the trace tier refuses; the
// emulator counts it as an unsupported-op abort, not a compiler failure.
func unsupported(format string, args ...any) error {
	return fmt.Errorf("lift: trace: %s: %w", fmt.Sprintf(format, args...), emu.ErrTraceUnsupported)
}

// writesReg reports whether the instruction writes its Dst register.
func writesReg(in *x86.Inst) bool {
	if in.Dst.Kind != x86.KReg {
		return false
	}
	switch in.Op {
	case x86.CMP, x86.TEST, x86.JCC, x86.JMP, x86.NOP, x86.ENDBR64, x86.PUSH:
		return false
	case x86.SHL, x86.SHR, x86.SAR:
		// A masked-to-zero count is a complete no-op.
		return in.ShiftCount() != 0
	}
	return true
}

func checkOperands(in *x86.Inst) error {
	for _, o := range []x86.Operand{in.Dst, in.Src, in.Src2} {
		switch o.Kind {
		case x86.KReg:
			if o.Reg.IsHighByte() {
				return unsupported("high-byte register at %#x", in.Addr)
			}
			if !o.Reg.IsGP() {
				return unsupported("non-GP register %v at %#x", o.Reg, in.Addr)
			}
		case x86.KMem:
			if err := checkMem(in, o); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkMem(in *x86.Inst, o x86.Operand) error {
	if o.Mem.Seg != x86.SegNone {
		return unsupported("segment override at %#x", in.Addr)
	}
	if !o.Mem.RIPRel {
		if o.Mem.Base != x86.NoReg && !o.Mem.Base.IsGP() {
			return unsupported("base register %v at %#x", o.Mem.Base, in.Addr)
		}
		if o.Mem.Index != x86.NoReg && !o.Mem.Index.IsGP() {
			return unsupported("index register %v at %#x", o.Mem.Index, in.Addr)
		}
	}
	return nil
}

// isTraceSSE reports whether op belongs to the traced SSE2 subset; which
// operand shapes of it are accepted is checkSSEOperands' business.
func isTraceSSE(op x86.Op) bool {
	switch op {
	case x86.MOVSD_X, x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD,
		x86.ADDPD, x86.SUBPD, x86.MULPD,
		x86.PXOR, x86.XORPD, x86.XORPS,
		x86.MOVAPD, x86.MOVUPD, x86.MOVAPS, x86.MOVDQA, x86.MOVQ, x86.MOVQGP:
		return true
	}
	return false
}

// checkSSEOperands accepts xmm,xmm for every traced SSE op but MOVQGP
// (xmm,r64 and r64,xmm), xmm,m64 for the scalar moves and arithmetic, m64,xmm
// for MOVSD, xmm,m128 for the packed arithmetic and MOVUPD/MOVAPD, and
// m128,xmm for those two moves. Everything else is refused.
func checkSSEOperands(in *x86.Inst) error {
	isX := func(o x86.Operand) bool { return o.Kind == x86.KReg && o.Reg.IsXMM() }
	isR64 := func(o x86.Operand) bool { return o.Kind == x86.KReg && o.Reg.IsGP() && o.Size == 8 }
	isM64 := func(o x86.Operand) bool { return o.Kind == x86.KMem && o.Size == 8 }
	isM128 := func(o x86.Operand) bool { return o.Kind == x86.KMem && o.Size == 16 }
	var ok bool
	switch in.Op {
	case x86.MOVQGP:
		ok = isX(in.Dst) && isR64(in.Src) || isR64(in.Dst) && isX(in.Src)
	case x86.MOVSD_X:
		ok = isX(in.Dst) && (isX(in.Src) || isM64(in.Src)) || isM64(in.Dst) && isX(in.Src)
	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD:
		ok = isX(in.Dst) && (isX(in.Src) || isM64(in.Src))
	case x86.MOVUPD, x86.MOVAPD:
		ok = isX(in.Dst) && (isX(in.Src) || isM128(in.Src)) || isM128(in.Dst) && isX(in.Src)
	case x86.ADDPD, x86.SUBPD, x86.MULPD:
		ok = isX(in.Dst) && (isX(in.Src) || isM128(in.Src))
	default:
		ok = isX(in.Dst) && isX(in.Src)
	}
	if !ok {
		return unsupported("operand form of %v at %#x", in, in.Addr)
	}
	for _, o := range []x86.Operand{in.Dst, in.Src} {
		if o.Kind == x86.KMem {
			return checkMem(in, o)
		}
	}
	return nil
}

// --- value helpers ---------------------------------------------------------

func (l *traceLifter) mask(v ir.Value, size uint8) ir.Value {
	if size == 8 {
		return v
	}
	return l.b.And(v, ir.Int(ir.I64, sizeMask(size)))
}

// sext64 sign-extends the low size bytes of v to 64 bits. High bits of v
// need not be clean — they are shifted out.
func (l *traceLifter) sext64(v ir.Value, size uint8) ir.Value {
	if size == 8 {
		return v
	}
	sh := ir.Int(ir.I64, uint64(64-uint(size)*8))
	return l.b.AShr(l.b.Shl(v, sh), sh)
}

// signTest returns the i1 sign bit of the low size bytes of v (v masked).
func (l *traceLifter) signTest(v ir.Value, size uint8) ir.Value {
	if size == 8 {
		return l.b.ICmp(ir.PredSLT, v, ir.Int(ir.I64, 0))
	}
	bit := ir.Int(ir.I64, uint64(1)<<(uint(size)*8-1))
	return l.b.ICmp(ir.PredNE, l.b.And(v, bit), ir.Int(ir.I64, 0))
}

func (l *traceLifter) parityOf(res ir.Value) ir.Value {
	p := l.b.Ctpop(l.b.And(res, ir.Int(ir.I64, 0xFF)))
	return l.b.ICmp(ir.PredEQ, l.b.And(p, ir.Int(ir.I64, 1)), ir.Int(ir.I64, 0))
}

// readOpVal reads an operand facet, masked to size. Memory reads go through
// a deoptimizing load intrinsic.
func (l *traceLifter) readOpVal(k int, in *x86.Inst, o x86.Operand, size uint8) ir.Value {
	switch o.Kind {
	case x86.KReg:
		return l.mask(l.cur[o.Reg], size)
	case x86.KImm:
		return ir.Int(ir.I64, uint64(o.Imm)&sizeMask(size))
	case x86.KMem:
		return l.memLoad(k, in, o, size)
	}
	panic("trace: readOpVal on absent operand")
}

// writeDst writes v (raw, possibly wider than size) to the destination with
// x86 facet semantics.
func (l *traceLifter) writeDst(k int, in *x86.Inst, o x86.Operand, v ir.Value) {
	if o.Kind == x86.KMem {
		l.memStore(k, in, o, v)
		return
	}
	l.cur[o.Reg] = l.regMerge(o.Reg, o.Size, v)
}

// regMerge computes the new full-width value of register r after writing
// the size-byte facet v.
func (l *traceLifter) regMerge(r x86.Reg, size uint8, v ir.Value) ir.Value {
	switch size {
	case 8:
		return v
	case 4:
		return l.b.And(v, ir.Int(ir.I64, 0xFFFFFFFF))
	default:
		m := sizeMask(size)
		keep := l.b.And(l.cur[r], ir.Int(ir.I64, ^m))
		return l.b.Or(keep, l.b.And(v, ir.Int(ir.I64, m)))
	}
}

// ea builds the effective address of a memory operand (full 64-bit wrap
// semantics, matching the block engine's bindEA).
func (l *traceLifter) ea(in *x86.Inst, o x86.Operand) ir.Value {
	mem := o.Mem
	if mem.RIPRel {
		return ir.Int(ir.I64, in.Addr+uint64(in.Len)+uint64(int64(mem.Disp)))
	}
	var v ir.Value
	if mem.Base != x86.NoReg {
		v = l.cur[mem.Base]
	}
	if mem.Index != x86.NoReg {
		ix := l.b.Mul(l.cur[mem.Index], ir.Int(ir.I64, uint64(mem.Scale)))
		if v == nil {
			v = ix
		} else {
			v = l.b.Add(v, ix)
		}
	}
	d := uint64(int64(mem.Disp))
	switch {
	case v == nil:
		return ir.Int(ir.I64, d)
	case d != 0:
		return l.b.Add(v, ir.Int(ir.I64, d))
	}
	return v
}

func (l *traceLifter) loadFn(size int) *ir.Func {
	f := l.loadFns[size]
	if f == nil {
		f = ir.NewFunc(fmt.Sprintf("trace.load%d", size), ir.I64, ir.I64)
		l.loadFns[size] = f
	}
	return f
}

func (l *traceLifter) storeFn(size int) *ir.Func {
	f := l.storeFns[size]
	if f == nil {
		if size == 16 { // address, lo, hi
			f = ir.NewFunc("trace.store16", ir.Void, ir.I64, ir.I64, ir.I64)
		} else {
			f = ir.NewFunc(fmt.Sprintf("trace.store%d", size), ir.Void, ir.I64, ir.I64)
		}
		l.storeFns[size] = f
	}
	return f
}

func (l *traceLifter) memLoad(k int, in *x86.Inst, o x86.Operand, size uint8) ir.Value {
	return l.loadAt(k, in, l.ea(in, o), int(size))
}

func (l *traceLifter) memStore(k int, in *x86.Inst, o x86.Operand, v ir.Value) {
	l.storeAt(k, in, l.ea(in, o), v, int(o.Size))
}

// loadAt and storeAt emit one memory site of step k, deoptimizing through
// the step's pre-instruction exit.
func (l *traceLifter) loadAt(k int, in *x86.Inst, addr ir.Value, size int) *ir.Inst {
	call := l.b.Call(l.loadFn(size), addr)
	l.p.Mems[call] = &TraceMem{Size: size, Step: k, Exit: l.deoptExit(k, in)}
	return call
}

func (l *traceLifter) storeAt(k int, in *x86.Inst, addr, v ir.Value, size int) *ir.Inst {
	call := l.b.Call(l.storeFn(size), addr, v)
	l.p.Mems[call] = &TraceMem{Size: size, Write: true, Step: k, Exit: l.deoptExit(k, in)}
	return call
}

// stackAt emits the 8-byte stack slot access of step k at rsp: a load, or
// a store of v when v is not nil.
func (l *traceLifter) stackAt(k int, in *x86.Inst, rsp, v ir.Value) *ir.Inst {
	var call *ir.Inst
	if v == nil {
		call = l.loadAt(k, in, rsp, 8)
	} else {
		call = l.storeAt(k, in, rsp, v, 8)
	}
	l.p.Mems[call].Stack = true
	return call
}

// load128 reads the 16-byte operand o as (lo, hi) lanes through one site.
func (l *traceLifter) load128(k int, in *x86.Inst, o x86.Operand) [2]ir.Value {
	lo := l.loadAt(k, in, l.ea(in, o), 16)
	if l.hiFn == nil {
		l.hiFn = ir.NewFunc("trace.load16hi", ir.I64, ir.I64)
	}
	hi := l.b.Call(l.hiFn, lo)
	mm := l.p.Mems[lo]
	mm.Hi, mm.Aligned = hi, in.Op == x86.MOVAPD
	return [2]ir.Value{lo, hi}
}

// store128 writes the lanes v to the 16-byte operand o through one site.
func (l *traceLifter) store128(k int, in *x86.Inst, o x86.Operand, v [2]ir.Value) {
	call := l.b.Call(l.storeFn(16), l.ea(in, o), v[0], v[1])
	l.p.Mems[call] = &TraceMem{Size: 16, Write: true, Aligned: in.Op == x86.MOVAPD, Step: k, Exit: l.deoptExit(k, in)}
}

// push lowers the stack half of PUSH and CALL: the 8-byte store of v below
// rsp, then the new rsp.
func (l *traceLifter) push(k int, in *x86.Inst, v ir.Value) {
	sp := l.b.Sub(l.cur[x86.RSP], ir.Int(ir.I64, 8))
	l.stackAt(k, in, sp, v)
	l.cur[x86.RSP] = sp
}

// deoptExit returns the step's shared pre-instruction exit: state as of
// BEFORE instruction k, resuming at the instruction itself. Both intrinsics
// of a read-modify-write share it — they are emitted before any register or
// flag update of the instruction, so the snapshot is the pre-state.
func (l *traceLifter) deoptExit(k int, in *x86.Inst) *ir.Inst {
	if e := l.stepExits[k]; e != nil {
		return e
	}
	e := l.newExit(k, in.Addr, l.ctrPhi, l.flags)
	l.stepExits[k] = e
	return e
}

// newExit creates an exit block holding one call that materializes the
// current register state (GPR and XMM) with the given flag state and
// counter, and records its descriptor. Returns the call.
func (l *traceLifter) newExit(steps int, rip uint64, ctr ir.Value, st flagState) *ir.Inst {
	cur := l.b.Cur
	eb := l.f.NewBlock(fmt.Sprintf("exit%d", l.nextExit))
	l.b.SetBlock(eb)
	var args []ir.Value
	var ptypes []*ir.Type
	for _, r := range l.p.RegIdx {
		args = append(args, l.cur[r])
		ptypes = append(ptypes, ir.I64)
	}
	for _, r := range l.p.XMMIdx {
		args = append(args, l.curX[r][0], l.curX[r][1])
		ptypes = append(ptypes, ir.I64, ir.I64)
	}
	for _, a := range st.args {
		args = append(args, a)
		ptypes = append(ptypes, a.Type())
	}
	args = append(args, ctr)
	ptypes = append(ptypes, ir.I64)
	callee := ir.NewFunc(fmt.Sprintf("trace.exit%d", l.nextExit), ir.Void, ptypes...)
	call := l.b.Call(callee, args...)
	l.b.Unreachable()
	l.p.Exits[call] = &TraceExit{Steps: uint64(steps), RIP: rip, In: st.in, Keep: st.keep}
	l.nextExit++
	l.b.SetBlock(cur)
	return call
}

// --- flag materialization and conditions -----------------------------------

// matFlag materializes one flag of the CURRENT state as an i1.
func (l *traceLifter) matFlag(i int) ir.Value { return l.matFlagOf(l.flags, i) }

func (l *traceLifter) matFlagOf(st flagState, i int) ir.Value {
	if st.keep&(1<<i) != 0 {
		return st.kept(i)
	}
	in, a, b := st.in, st.args[0], st.b()
	w := in.Dst.Size
	res := l.result(in, a, b)
	zero := ir.Int(ir.I64, 0)
	switch i {
	case fZF:
		return l.b.ICmp(ir.PredEQ, res, zero)
	case fSF:
		return l.signTest(res, w)
	case fPF:
		return l.parityOf(res)
	}
	// CF, OF and AF, where the writer does not pass them through.
	switch in.Op {
	case x86.AND, x86.OR, x86.XOR, x86.TEST:
		return ir.Bool(false)
	case x86.IMUL, x86.IMUL3:
		if w == 8 {
			return mulOverflow64(l.b, a, b)
		}
		return l.b.ICmp(ir.PredNE, l.sext64(res, w), l.b.Mul(l.sext64(a, w), l.sext64(b, w)))
	case x86.SHL, x86.SHR, x86.SAR:
		if i == fOF { // a count of 1: the sign changed
			return l.signTest(l.b.Xor(res, a), w)
		}
		width, cnt := uint64(w)*8, in.ShiftCount()
		switch in.Op {
		case x86.SHL:
			if cnt > width {
				return ir.Bool(false)
			}
			return l.bit(a, width-cnt)
		case x86.SAR: // the sign bit once cnt reaches the width
			return l.bit(l.sext64(a, w), cnt-1)
		}
		return l.bit(a, cnt-1)
	}
	// The add and subtract family: x + y or x - y.
	x, y, sub := a, b, false
	switch in.Op {
	case x86.INC:
		y = ir.Int(ir.I64, 1)
	case x86.SUB, x86.CMP:
		sub = true
	case x86.DEC:
		y, sub = ir.Int(ir.I64, 1), true
	case x86.NEG:
		x, y, sub = zero, a, true
	}
	switch i {
	case fCF:
		if sub {
			return l.b.ICmp(ir.PredULT, x, y)
		}
		return l.b.ICmp(ir.PredULT, res, x)
	case fOF:
		if sub {
			return l.signTest(l.b.And(l.b.Xor(x, y), l.b.Xor(x, res)), w)
		}
		return l.signTest(l.b.And(l.b.Xor(x, res), l.b.Xor(y, res)), w)
	}
	// AF: the carry out of, or borrow into, the low nibble.
	fifteen := ir.Int(ir.I64, 0xF)
	xn, yn := l.b.And(x, fifteen), l.b.And(y, fifteen)
	if sub {
		return l.b.ICmp(ir.PredULT, xn, yn)
	}
	return l.b.ICmp(ir.PredUGT, l.b.Add(xn, yn), fifteen)
}

// b returns the writer's second kernel input, nil for a one-input opcode.
func (st flagState) b() ir.Value {
	if kernelInputs(st.in) < 2 {
		return nil
	}
	return st.args[1]
}

// bit returns bit n of v as an i1.
func (l *traceLifter) bit(v ir.Value, n uint64) ir.Value {
	return l.b.ICmp(ir.PredNE, l.b.And(l.b.LShr(v, ir.Int(ir.I64, n)), ir.Int(ir.I64, 1)), ir.Int(ir.I64, 0))
}

// result builds the value the flag writer in computes from its kernel
// inputs a and b (nil for a one-input opcode), masked to its width. a and b
// are masked already.
func (l *traceLifter) result(in *x86.Inst, a, b ir.Value) ir.Value {
	w := in.Dst.Size
	one := ir.Int(ir.I64, 1)
	switch in.Op {
	case x86.ADD:
		return l.mask(l.b.Add(a, b), w)
	case x86.INC:
		return l.mask(l.b.Add(a, one), w)
	case x86.SUB, x86.CMP:
		return l.mask(l.b.Sub(a, b), w)
	case x86.DEC:
		return l.mask(l.b.Sub(a, one), w)
	case x86.NEG:
		return l.mask(l.b.Sub(ir.Int(ir.I64, 0), a), w)
	case x86.AND, x86.TEST:
		return l.b.And(a, b)
	case x86.OR:
		return l.b.Or(a, b)
	case x86.XOR:
		return l.b.Xor(a, b)
	case x86.IMUL, x86.IMUL3:
		return l.mask(l.b.Mul(l.sext64(a, w), l.sext64(b, w)), w)
	}
	cnt := ir.Int(ir.I64, in.ShiftCount())
	switch in.Op {
	case x86.SHL:
		return l.mask(l.b.Shl(a, cnt), w)
	case x86.SAR:
		return l.mask(l.b.AShr(l.sext64(a, w), cnt), w)
	}
	return l.b.LShr(a, cnt) // SHR: a is masked, so its high bits are zero
}

// setFlags makes in, with kernel inputs a and b (nil for a one-input
// opcode), the last flag writer. The flags it passes through are
// materialized from the state before it.
func (l *traceLifter) setFlags(in *x86.Inst, a, b ir.Value) {
	st := flagShape(in)
	st.args = []ir.Value{a}
	if b != nil {
		st.args = append(st.args, b)
	}
	for i := 0; i < 6; i++ {
		if st.keep&(1<<i) != 0 {
			st.args = append(st.args, l.matFlag(i))
		}
	}
	l.flags = st
}

// cond builds the i1 value of an x86 condition over the current flag state,
// with direct integer-compare fast paths for a sub or cmp writer.
func (l *traceLifter) cond(c x86.Cond) ir.Value {
	neg := c&1 == 1
	base := c &^ 1
	st := l.flags
	if st.in != nil && (st.in.Op == x86.SUB || st.in.Op == x86.CMP) {
		a, bb := st.args[0], st.args[1]
		var pred ir.Pred
		ok := true
		switch base {
		case x86.CondE:
			pred = ir.PredEQ
			if neg {
				pred = ir.PredNE
			}
			return l.b.ICmp(pred, a, bb)
		case x86.CondB:
			pred = ir.PredULT
			if neg {
				pred = ir.PredUGE
			}
			return l.b.ICmp(pred, a, bb)
		case x86.CondBE:
			pred = ir.PredULE
			if neg {
				pred = ir.PredUGT
			}
			return l.b.ICmp(pred, a, bb)
		case x86.CondL:
			pred = ir.PredSLT
			if neg {
				pred = ir.PredSGE
			}
		case x86.CondLE:
			pred = ir.PredSLE
			if neg {
				pred = ir.PredSGT
			}
		default:
			ok = false
		}
		if ok {
			return l.b.ICmp(pred, l.sext64(a, st.in.Dst.Size), l.sext64(bb, st.in.Dst.Size))
		}
	}
	// Generic: compose CondHoldsIn's formula from materialized flags.
	var v ir.Value
	switch base {
	case x86.CondO:
		v = l.matFlag(fOF)
	case x86.CondB:
		v = l.matFlag(fCF)
	case x86.CondE:
		v = l.matFlag(fZF)
	case x86.CondBE:
		v = l.b.Or(l.matFlag(fCF), l.matFlag(fZF))
	case x86.CondS:
		v = l.matFlag(fSF)
	case x86.CondP:
		v = l.matFlag(fPF)
	case x86.CondL:
		v = l.b.Xor(l.matFlag(fSF), l.matFlag(fOF))
	case x86.CondLE:
		v = l.b.Or(l.matFlag(fZF), l.b.Xor(l.matFlag(fSF), l.matFlag(fOF)))
	}
	if neg {
		return l.b.Xor(v, ir.Bool(true))
	}
	return v
}

// --- instruction lifting ---------------------------------------------------

func (l *traceLifter) liftStep(k int, st *emu.TraceStep) error {
	in := st.In
	if isTraceSSE(in.Op) {
		l.liftSSE(k, in)
		return nil
	}
	switch in.Op {
	case x86.NOP, x86.ENDBR64, x86.JMP:
		// JMP's target is the recorded path; nothing to emit.
		return nil

	case x86.MOV:
		v := l.readOpVal(k, in, in.Src, in.Src.Size)
		l.writeDst(k, in, in.Dst, v)
	case x86.MOVZX:
		v := l.readOpVal(k, in, in.Src, in.Src.Size)
		l.writeDst(k, in, in.Dst, v)
	case x86.MOVSX, x86.MOVSXD:
		v := l.readOpVal(k, in, in.Src, in.Src.Size)
		l.writeDst(k, in, in.Dst, l.sext64(v, in.Src.Size))
	case x86.LEA:
		l.cur[in.Dst.Reg] = l.regMerge(in.Dst.Reg, in.Dst.Size, l.ea(in, in.Src))

	case x86.NOT:
		size := in.Dst.Size
		v := l.readOpVal(k, in, in.Dst, size)
		l.writeDst(k, in, in.Dst, l.b.Xor(v, ir.Int(ir.I64, sizeMask(size))))

	case x86.ADD, x86.SUB, x86.CMP, x86.AND, x86.OR, x86.XOR, x86.TEST,
		x86.NEG, x86.INC, x86.DEC, x86.IMUL, x86.IMUL3, x86.SHL, x86.SHR, x86.SAR:
		if !writesFlags(in) {
			return nil // a shift whose count masks to 0: no write, no flags
		}
		ao, bo, out, _ := emu.IntOperands(in)
		size := ao.Size
		a := l.readOpVal(k, in, ao, size)
		var b ir.Value
		if bo.Kind != x86.KNone {
			b = l.readOpVal(k, in, bo, size)
		}
		if in.Op != x86.CMP && in.Op != x86.TEST {
			l.writeDst(k, in, out, l.result(in, a, b))
		}
		l.setFlags(in, a, b)

	case x86.CMOVCC:
		cond := l.cond(in.Cond)
		size := in.Dst.Size
		notTaken := l.cur[in.Dst.Reg]
		if size == 4 {
			// A 32-bit cmov zeroes the upper half even when not taken.
			notTaken = l.b.And(notTaken, ir.Int(ir.I64, 0xFFFFFFFF))
		}
		if in.Src.Kind != x86.KMem {
			taken := l.regMerge(in.Dst.Reg, size, l.readOpVal(k, in, in.Src, size))
			l.cur[in.Dst.Reg] = l.b.Select(cond, taken, notTaken)
			break
		}
		// The emulator reads a memory source only when the move is taken:
		// load, skip (an empty block, so that no conditional edge carries
		// phi moves), and a join.
		load, skip, join := l.f.NewBlock(""), l.f.NewBlock(""), l.f.NewBlock("")
		l.b.CondBr(cond, load, skip)
		l.b.SetBlock(load)
		taken := l.regMerge(in.Dst.Reg, size, l.readOpVal(k, in, in.Src, size))
		l.b.Br(join)
		l.b.SetBlock(skip)
		l.b.Br(join)
		l.b.SetBlock(join)
		v := l.b.Phi(ir.I64)
		ir.AddIncoming(v, taken, load)
		ir.AddIncoming(v, notTaken, skip)
		l.cur[in.Dst.Reg] = v

	case x86.SETCC:
		cond := l.cond(in.Cond)
		l.writeDst(k, in, in.Dst, l.b.ZExt(cond, ir.I64))

	case x86.CALL:
		// The callee is the recorded path, like a JMP's target.
		l.push(k, in, ir.Int(ir.I64, in.Addr+uint64(in.Len)))
	case x86.PUSH:
		l.push(k, in, l.cur[in.Dst.Reg])
	case x86.POP:
		v := l.stackAt(k, in, l.cur[x86.RSP], nil)
		l.cur[x86.RSP] = l.b.Add(l.cur[x86.RSP], ir.Int(ir.I64, 8))
		l.cur[in.Dst.Reg] = v
	case x86.RET:
		// The recorder checked that this return came back to its call; the
		// guard re-checks the popped address on every run and leaves before
		// the RET when the callee returned anywhere else.
		exit := l.deoptExit(k, in)
		to := l.stackAt(k, in, l.cur[x86.RSP], nil)
		succ := l.req.Head
		if k+1 < len(l.req.Steps) {
			succ = l.req.Steps[k+1].In.Addr
		}
		cont := l.f.NewBlock("")
		l.b.CondBr(l.b.ICmp(ir.PredEQ, to, ir.Int(ir.I64, succ)), cont, exit.Parent)
		l.b.SetBlock(cont)
		l.cur[x86.RSP] = l.b.Add(l.cur[x86.RSP], ir.Int(ir.I64, 8))

	case x86.JCC:
		cond := l.cond(in.Cond)
		fallthrough_ := in.Addr + uint64(in.Len)
		target := uint64(in.Dst.Imm)
		var exit *ir.Inst
		if st.Taken {
			exit = l.newExit(k+1, fallthrough_, l.ctrPhi, l.flags)
		} else {
			exit = l.newExit(k+1, target, l.ctrPhi, l.flags)
		}
		cont := l.f.NewBlock("")
		if st.Taken {
			l.b.CondBr(cond, cont, exit.Parent)
		} else {
			l.b.CondBr(cond, exit.Parent, cont)
		}
		l.b.SetBlock(cont)

	default:
		return unsupported("%v at %#x", in.Op, in.Addr)
	}
	return nil
}

// liftSSE lifts one instruction of the traced SSE2 subset (operand shapes
// already vetted by checkSSEOperands) onto the lane pairs. Lane semantics
// follow the emulator's SSE kernel (emu/sse.go): a scalar load zeroes the
// high lane, scalar register moves and arithmetic preserve it, MOVQ zeroes
// it.
func (l *traceLifter) liftSSE(k int, in *x86.Inst) {
	zero := ir.Int(ir.I64, 0)
	if in.Op == x86.MOVQGP {
		if in.Dst.Reg.IsXMM() {
			l.curX[in.Dst.Reg-x86.XMM0] = [2]ir.Value{l.cur[in.Src.Reg], zero}
		} else {
			l.cur[in.Dst.Reg] = l.curX[in.Src.Reg-x86.XMM0][0]
		}
		return
	}
	// srcLo reads the low 64 bits of the source: register lane or 8-byte
	// load through the deoptimizing intrinsic; src reads both lanes.
	srcLo := func() ir.Value {
		if in.Src.Kind == x86.KMem {
			return l.memLoad(k, in, in.Src, 8)
		}
		return l.curX[in.Src.Reg-x86.XMM0][0]
	}
	src := func() [2]ir.Value {
		if in.Src.Kind == x86.KMem {
			return l.load128(k, in, in.Src)
		}
		return l.curX[in.Src.Reg-x86.XMM0]
	}
	if in.Dst.Kind == x86.KMem { // movsd m64, xmm; movupd/movapd m128, xmm
		s := l.curX[in.Src.Reg-x86.XMM0]
		if in.Dst.Size == 16 {
			l.store128(k, in, in.Dst, s)
		} else {
			l.memStore(k, in, in.Dst, s[0])
		}
		return
	}
	d := &l.curX[in.Dst.Reg-x86.XMM0]
	switch in.Op {
	case x86.MOVSD_X:
		d[0] = srcLo()
		if in.Src.Kind == x86.KMem {
			d[1] = zero
		}
	case x86.MOVQ:
		d[0], d[1] = srcLo(), zero
	case x86.MOVAPD, x86.MOVUPD, x86.MOVAPS, x86.MOVDQA:
		*d = src()
	case x86.PXOR, x86.XORPD, x86.XORPS:
		s := l.curX[in.Src.Reg-x86.XMM0]
		d[0], d[1] = l.b.Xor(d[0], s[0]), l.b.Xor(d[1], s[1])
	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD:
		d[0] = l.fop(in.Op, d[0], srcLo())
	case x86.ADDPD, x86.SUBPD, x86.MULPD:
		s := src()
		d[0] = l.fop(in.Op, d[0], s[0])
		d[1] = l.fop(in.Op, d[1], s[1])
	}
}

// fop computes one double lane a OP b on i64 bit patterns; a is the
// destination's lane, the first operand, as in the guest instruction.
func (l *traceLifter) fop(op x86.Op, a, b ir.Value) ir.Value {
	x, y := l.b.Bitcast(a, ir.Double), l.b.Bitcast(b, ir.Double)
	var r *ir.Inst
	switch op {
	case x86.ADDSD, x86.ADDPD:
		r = l.b.FAdd(x, y)
	case x86.SUBSD, x86.SUBPD:
		r = l.b.FSub(x, y)
	case x86.MULSD, x86.MULPD:
		r = l.b.FMul(x, y)
	case x86.DIVSD:
		r = l.b.FDiv(x, y)
	}
	return l.b.Bitcast(r, ir.I64)
}
