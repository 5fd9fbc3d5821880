package lift

import (
	"fmt"

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
// Flags are LAZY: no per-iteration flag IR is emitted. The lifter tracks a
// symbolic recipe (last flag-writing operation and its operands) and exits
// carry the recipe's inputs; the VM recomputes the six flags once, at exit,
// using the emulator's own flag helpers. Loop-carried flag state uses six
// explicit i1 phis whose backedge values materialize the final recipe —
// they are emitted unconditionally and dead-code-eliminated whenever no
// exit or in-body condition consumes pre-first-flag-write state, which is
// the common case.
//
// XMM registers are modelled as a pair of i64 lanes (lo, hi) beside the 16
// GPRs: live-in parameters, header phis and exit arguments per written
// register, exactly like a GPR. The supported SSE2 subset is scalar double —
// MOVSD, ADDSD/SUBSD/MULSD/DIVSD with a register or 8-byte memory source —
// plus the register forms of PXOR/XORPD/XORPS, MOVAPD/MOVAPS/MOVDQA and
// MOVQ (xmm-xmm, and xmm-r64 either way: how the JIT materializes a double
// constant), which only shuffle or xor lanes. Arithmetic is fadd/fsub/fmul/fdiv
// on the bitcast low lane with no fast-math flag, so the optimizer may fold
// nothing the hardware would not compute. None of them touches the flags.
// 16-byte memory operands stay out because their unaligned-vector penalty
// would deoptimize every iteration, and the flag-writing compares because
// they need a flag recipe of their own.
//
// Memory accesses become intrinsic calls ("trace.loadN"/"trace.storeN").
// Any abnormal access — unmapped address, nonzero modelled penalty, or a
// store into a watched (code-bearing) region — deoptimizes BEFORE the
// owning instruction executes, so the block engine re-executes it with
// exact fault, penalty, and self-modification semantics. Consequently an
// in-trace access that does execute never carries a penalty, which is what
// makes the caller's cycle replay exact.

// TraceFlagKind identifies the symbolic flag recipe at an exit.
type TraceFlagKind uint8

// Flag recipe kinds. The comment lists the dynamic args carried by an exit.
const (
	// TFExplicit: args cf, pf, af, zf, sf, of (i1) — write all six directly.
	TFExplicit TraceFlagKind = iota
	// TFAdd: args a, b — FlagsOfAdd(a, b, w).
	TFAdd
	// TFSub: args a, b — FlagsOfSub(a, b, w).
	TFSub
	// TFAddCF: args a, b, cf — FlagsOfAdd with CF forced (INC).
	TFAddCF
	// TFSubCF: args a, b, cf — FlagsOfSub with CF forced (DEC, NEG).
	TFSubCF
	// TFLogic: args res — FlagsOfLogic(res, w).
	TFLogic
	// TFShift: args v, res, af and, when ShiftCnt != 1, of. CF comes from
	// v and the static count, OF from the sign bits when ShiftCnt == 1.
	TFShift
	// TFMul: args full, af — IMUL's CF=OF overflow test on the full
	// product, result flags from the truncated product.
	TFMul
)

// TraceExit is the static side of one exit call. Argument layout of the
// call: current values of Prog.RegIdx registers in order, then the (lo, hi)
// lanes of Prog.XMMIdx registers in order, then NArgs flag recipe args, then
// the iteration counter.
type TraceExit struct {
	// Steps is the number of instructions of the current iteration retired
	// before the exit (0 for loop-header exits; k for a deopt before
	// instruction k; k+1 for a guard exit after branch k).
	Steps uint64
	// RIP is the address the block engine resumes at.
	RIP uint64

	Kind     TraceFlagKind
	W        uint8 // flag operand width in bytes
	ShiftOp  x86.Op
	ShiftCnt uint8
	NArgs    int
}

// TraceMem is the static side of one memory intrinsic: the access width and
// the deopt exit (a call in its own unreachable block) to take when the
// access cannot be performed in-trace.
type TraceMem struct {
	Size  int
	Write bool
	Exit  *ir.Inst
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
	GenExit  *ir.Inst
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

type flagState struct {
	kind TraceFlagKind
	w    uint8
	op   x86.Op // TFShift only
	cnt  uint8  // TFShift only
	args []ir.Value
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
}

// The trace parameter order and TFExplicit argument order both follow the
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
	shape, written, writtenX, usedX, err := scanTrace(req)
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
	// an XMM register), the six explicit flags, and the final recipe's
	// dynamic inputs.
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
	if shape.kind == TFExplicit {
		for i := 0; i < 6; i++ {
			l.recipePhis = append(l.recipePhis, l.flagPhis[i])
		}
	} else {
		for _, ty := range recipeArgTypes(shape) {
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
	l.flags = flagState{kind: TFExplicit, args: []ir.Value{
		l.flagPhis[0], l.flagPhis[1], l.flagPhis[2], l.flagPhis[3], l.flagPhis[4], l.flagPhis[5],
	}}

	// Budget-cap exit: flags at the header are the final recipe carried
	// through the recipe phis. This exit can only execute from the second
	// header arrival on (the caller guarantees iterCap >= 1), by which
	// point the phis hold iteration values, never the entry-edge undefs.
	headState := shape
	headState.args = make([]ir.Value, len(l.recipePhis))
	for i, ph := range l.recipePhis {
		headState.args[i] = ph
	}
	capCond := l.b.ICmp(ir.PredUGE, l.ctrPhi, l.f.Params[TraceParamCap])
	capExit := l.newExit(0, req.Head, l.ctrPhi, headState)
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
	if finalState.kind != TFExplicit {
		if len(finalState.args) != len(l.recipePhis) {
			return nil, fmt.Errorf("lift: trace recipe shape drifted (%d args, phis %d)", len(finalState.args), len(l.recipePhis))
		}
		for i, ph := range l.recipePhis {
			ir.AddIncoming(ph, ir.UndefOf(ph.Type()), entry)
			ir.AddIncoming(ph, finalState.args[i], backedge)
		}
	}
	return l.p, nil
}

// recipeArgTypes returns the exit argument types of a recipe shape.
func recipeArgTypes(s flagState) []*ir.Type {
	switch s.kind {
	case TFExplicit:
		return []*ir.Type{ir.I1, ir.I1, ir.I1, ir.I1, ir.I1, ir.I1}
	case TFAdd, TFSub:
		return []*ir.Type{ir.I64, ir.I64}
	case TFAddCF, TFSubCF:
		return []*ir.Type{ir.I64, ir.I64, ir.I1}
	case TFLogic:
		return []*ir.Type{ir.I64}
	case TFShift:
		if s.cnt != 1 {
			return []*ir.Type{ir.I64, ir.I64, ir.I1, ir.I1}
		}
		return []*ir.Type{ir.I64, ir.I64, ir.I1}
	case TFMul:
		return []*ir.Type{ir.I64, ir.I1}
	}
	return nil
}

// scanTrace rejects unsupported instructions and pre-computes the register
// write sets (GPR and XMM), the XMM registers referenced at all, and the
// loop-carried flag recipe shape (which pass 2 must end on — the simulation
// below mirrors liftStep's flag updates exactly).
func scanTrace(req *emu.TraceRequest) (shape flagState, written, writtenX, usedX [16]bool, err error) {
	shape = flagState{kind: TFExplicit}
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
		case x86.NOP, x86.ENDBR64, x86.JMP, x86.JCC:
		case x86.MOV, x86.MOVZX, x86.MOVSX, x86.MOVSXD, x86.LEA, x86.NOT,
			x86.CMOVCC, x86.SETCC:
		case x86.ADD:
			shape = flagState{kind: TFAdd, w: in.Dst.Size}
		case x86.SUB, x86.CMP:
			shape = flagState{kind: TFSub, w: in.Dst.Size}
		case x86.AND, x86.OR, x86.XOR, x86.TEST:
			shape = flagState{kind: TFLogic, w: in.Dst.Size}
		case x86.INC:
			shape = flagState{kind: TFAddCF, w: in.Dst.Size}
		case x86.DEC, x86.NEG:
			shape = flagState{kind: TFSubCF, w: in.Dst.Size}
		case x86.IMUL, x86.IMUL3:
			shape = flagState{kind: TFMul, w: in.Dst.Size}
		case x86.SHL, x86.SHR, x86.SAR:
			if in.Src.Kind != x86.KImm {
				err = unsupported("dynamic shift count at %#x", in.Addr)
				return
			}
			if cnt := shiftCount(in); cnt != 0 {
				shape = flagState{kind: TFShift, w: in.Dst.Size, op: in.Op, cnt: cnt}
			}
		default:
			err = unsupported("%v at %#x", in.Op, in.Addr)
			return
		}
		if writesReg(in) {
			written[in.Dst.Reg] = true
		}
	}
	return
}

// unsupported builds the error for a recording the trace tier refuses; the
// emulator counts it as an unsupported-op abort, not a compiler failure.
func unsupported(format string, args ...any) error {
	return fmt.Errorf("lift: trace: %s: %w", fmt.Sprintf(format, args...), emu.ErrTraceUnsupported)
}

func shiftCount(in *x86.Inst) uint8 {
	cnt := uint64(in.Src.Imm)
	if in.Dst.Size == 8 {
		return uint8(cnt & 63)
	}
	return uint8(cnt & 31)
}

// writesReg reports whether the instruction writes its Dst register.
func writesReg(in *x86.Inst) bool {
	if in.Dst.Kind != x86.KReg {
		return false
	}
	switch in.Op {
	case x86.CMP, x86.TEST, x86.JCC, x86.JMP, x86.NOP, x86.ENDBR64:
		return false
	case x86.SHL, x86.SHR, x86.SAR:
		// A masked-to-zero count is a complete no-op.
		return shiftCount(in) != 0
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
		x86.PXOR, x86.XORPD, x86.XORPS,
		x86.MOVAPD, x86.MOVAPS, x86.MOVDQA, x86.MOVQ, x86.MOVQGP:
		return true
	}
	return false
}

// checkSSEOperands accepts xmm,xmm for every traced SSE op but MOVQGP
// (xmm,r64 and r64,xmm), xmm,m64 for the scalar moves and arithmetic, and
// m64,xmm for MOVSD. Everything else — the 16-byte memory forms above all —
// is refused.
func checkSSEOperands(in *x86.Inst) error {
	isX := func(o x86.Operand) bool { return o.Kind == x86.KReg && o.Reg.IsXMM() }
	isR64 := func(o x86.Operand) bool { return o.Kind == x86.KReg && o.Reg.IsGP() && o.Size == 8 }
	isM64 := func(o x86.Operand) bool { return o.Kind == x86.KMem && o.Size == 8 }
	var ok bool
	switch in.Op {
	case x86.MOVQGP:
		ok = isX(in.Dst) && isR64(in.Src) || isR64(in.Dst) && isX(in.Src)
	case x86.MOVSD_X:
		ok = isX(in.Dst) && (isX(in.Src) || isM64(in.Src)) || isM64(in.Dst) && isX(in.Src)
	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD:
		ok = isX(in.Dst) && (isX(in.Src) || isM64(in.Src))
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
		f = ir.NewFunc(fmt.Sprintf("trace.store%d", size), ir.Void, ir.I64, ir.I64)
		l.storeFns[size] = f
	}
	return f
}

func (l *traceLifter) memLoad(k int, in *x86.Inst, o x86.Operand, size uint8) ir.Value {
	exit := l.deoptExit(k, in)
	addr := l.ea(in, o)
	call := l.b.Call(l.loadFn(int(size)), addr)
	l.p.Mems[call] = &TraceMem{Size: int(size), Exit: exit}
	return call
}

func (l *traceLifter) memStore(k int, in *x86.Inst, o x86.Operand, v ir.Value) {
	exit := l.deoptExit(k, in)
	addr := l.ea(in, o)
	call := l.b.Call(l.storeFn(int(o.Size)), addr, v)
	l.p.Mems[call] = &TraceMem{Size: int(o.Size), Write: true, Exit: exit}
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
	l.p.Exits[call] = &TraceExit{
		Steps:    uint64(steps),
		RIP:      rip,
		Kind:     st.kind,
		W:        st.w,
		ShiftOp:  st.op,
		ShiftCnt: st.cnt,
		NArgs:    len(st.args),
	}
	l.nextExit++
	l.b.SetBlock(cur)
	return call
}

// --- flag materialization and conditions -----------------------------------

// matFlag materializes one flag of the CURRENT state as an i1.
func (l *traceLifter) matFlag(i int) ir.Value { return l.matFlagOf(l.flags, i) }

func (l *traceLifter) matFlagOf(st flagState, i int) ir.Value {
	zero := ir.Int(ir.I64, 0)
	switch st.kind {
	case TFExplicit:
		return st.args[i]
	case TFAdd, TFAddCF, TFSub, TFSubCF:
		a, bb := st.args[0], st.args[1]
		var res ir.Value
		add := st.kind == TFAdd || st.kind == TFAddCF
		if add {
			res = l.mask(l.b.Add(a, bb), st.w)
		} else {
			res = l.mask(l.b.Sub(a, bb), st.w)
		}
		switch i {
		case fCF:
			if st.kind == TFAddCF || st.kind == TFSubCF {
				return st.args[2]
			}
			if add {
				return l.b.ICmp(ir.PredULT, res, a)
			}
			return l.b.ICmp(ir.PredULT, a, bb)
		case fOF:
			var tmp ir.Value
			if add {
				tmp = l.b.And(l.b.Xor(a, res), l.b.Xor(bb, res))
			} else {
				tmp = l.b.And(l.b.Xor(a, bb), l.b.Xor(a, res))
			}
			return l.signTest(tmp, st.w)
		case fAF:
			fifteen := ir.Int(ir.I64, 0xF)
			an, bn := l.b.And(a, fifteen), l.b.And(bb, fifteen)
			if add {
				return l.b.ICmp(ir.PredUGT, l.b.Add(an, bn), fifteen)
			}
			return l.b.ICmp(ir.PredULT, an, bn)
		case fZF:
			return l.b.ICmp(ir.PredEQ, res, zero)
		case fSF:
			return l.signTest(res, st.w)
		case fPF:
			return l.parityOf(res)
		}
	case TFLogic:
		res := st.args[0]
		switch i {
		case fCF, fOF, fAF:
			return ir.Bool(false)
		case fZF:
			return l.b.ICmp(ir.PredEQ, res, zero)
		case fSF:
			return l.signTest(res, st.w)
		case fPF:
			return l.parityOf(res)
		}
	case TFShift:
		v, res, af := st.args[0], st.args[1], st.args[2]
		width := uint(st.w) * 8
		switch i {
		case fAF:
			return af
		case fCF:
			cnt := uint(st.cnt)
			if st.op == x86.SHL {
				if cnt > width {
					return ir.Bool(false)
				}
				return l.b.ICmp(ir.PredNE,
					l.b.And(l.b.LShr(v, ir.Int(ir.I64, uint64(width-cnt))), ir.Int(ir.I64, 1)), zero)
			}
			return l.b.ICmp(ir.PredNE,
				l.b.And(l.b.LShr(v, ir.Int(ir.I64, uint64(cnt-1))), ir.Int(ir.I64, 1)), zero)
		case fOF:
			if st.cnt == 1 {
				return l.signTest(l.b.Xor(res, v), st.w)
			}
			return st.args[3]
		case fZF:
			return l.b.ICmp(ir.PredEQ, res, zero)
		case fSF:
			return l.signTest(res, st.w)
		case fPF:
			return l.parityOf(res)
		}
	case TFMul:
		full, af := st.args[0], st.args[1]
		res := l.mask(full, st.w)
		switch i {
		case fAF:
			return af
		case fCF, fOF:
			if st.w == 8 {
				return ir.Bool(false)
			}
			return l.b.ICmp(ir.PredNE, l.sext64(res, st.w), full)
		case fZF:
			return l.b.ICmp(ir.PredEQ, res, zero)
		case fSF:
			return l.signTest(res, st.w)
		case fPF:
			return l.parityOf(res)
		}
	}
	panic("trace: unhandled flag materialization")
}

// cond builds the i1 value of an x86 condition over the current flag state,
// with direct integer-compare fast paths for the dominant sub/cmp and
// logic-op recipes.
func (l *traceLifter) cond(c x86.Cond) ir.Value {
	neg := c&1 == 1
	base := c &^ 1
	st := l.flags
	if st.kind == TFSub {
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
			return l.b.ICmp(pred, l.sext64(a, st.w), l.sext64(bb, st.w))
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

	case x86.ADD, x86.SUB, x86.CMP, x86.AND, x86.OR, x86.XOR, x86.TEST:
		size := in.Dst.Size
		a := l.readOpVal(k, in, in.Dst, size)
		bb := l.readOpVal(k, in, in.Src, size)
		var res ir.Value
		var kind TraceFlagKind
		var fargs []ir.Value
		switch in.Op {
		case x86.ADD:
			res = l.b.Add(a, bb)
			kind, fargs = TFAdd, []ir.Value{a, bb}
		case x86.SUB, x86.CMP:
			res = l.b.Sub(a, bb)
			kind, fargs = TFSub, []ir.Value{a, bb}
		case x86.AND, x86.TEST:
			res = l.b.And(a, bb)
			kind, fargs = TFLogic, nil
		case x86.OR:
			res = l.b.Or(a, bb)
			kind, fargs = TFLogic, nil
		case x86.XOR:
			res = l.b.Xor(a, bb)
			kind, fargs = TFLogic, nil
		}
		res = l.mask(res, size)
		if kind == TFLogic {
			fargs = []ir.Value{res}
		}
		if in.Op != x86.CMP && in.Op != x86.TEST {
			l.writeDst(k, in, in.Dst, res)
		}
		l.flags = flagState{kind: kind, w: size, args: fargs}

	case x86.NOT:
		size := in.Dst.Size
		v := l.readOpVal(k, in, in.Dst, size)
		l.writeDst(k, in, in.Dst, l.b.Xor(v, ir.Int(ir.I64, sizeMask(size))))
	case x86.NEG:
		size := in.Dst.Size
		v := l.readOpVal(k, in, in.Dst, size)
		cf := l.b.ICmp(ir.PredNE, v, ir.Int(ir.I64, 0))
		res := l.mask(l.b.Sub(ir.Int(ir.I64, 0), v), size)
		l.writeDst(k, in, in.Dst, res)
		l.flags = flagState{kind: TFSubCF, w: size, args: []ir.Value{ir.Int(ir.I64, 0), v, cf}}
	case x86.INC, x86.DEC:
		size := in.Dst.Size
		cf := l.matFlag(fCF) // INC/DEC preserve CF from the previous state
		v := l.readOpVal(k, in, in.Dst, size)
		one := ir.Int(ir.I64, 1)
		if in.Op == x86.INC {
			res := l.mask(l.b.Add(v, one), size)
			l.writeDst(k, in, in.Dst, res)
			l.flags = flagState{kind: TFAddCF, w: size, args: []ir.Value{v, one, cf}}
		} else {
			res := l.mask(l.b.Sub(v, one), size)
			l.writeDst(k, in, in.Dst, res)
			l.flags = flagState{kind: TFSubCF, w: size, args: []ir.Value{v, one, cf}}
		}

	case x86.IMUL, x86.IMUL3:
		af := l.matFlag(fAF) // IMUL leaves AF as-is
		var a, bb ir.Value
		if in.Op == x86.IMUL {
			a = l.sext64(l.readOpVal(k, in, in.Dst, in.Dst.Size), in.Dst.Size)
			bb = l.sext64(l.readOpVal(k, in, in.Src, in.Src.Size), in.Src.Size)
		} else {
			a = l.sext64(l.readOpVal(k, in, in.Src, in.Src.Size), in.Src.Size)
			bb = ir.Int(ir.I64, uint64(in.Src2.Imm))
		}
		full := l.b.Mul(a, bb)
		l.writeDst(k, in, in.Dst, l.mask(full, in.Dst.Size))
		l.flags = flagState{kind: TFMul, w: in.Dst.Size, args: []ir.Value{full, af}}

	case x86.SHL, x86.SHR, x86.SAR:
		size := in.Dst.Size
		cnt := shiftCount(in)
		if cnt == 0 {
			return nil // no write, no flags
		}
		af := l.matFlag(fAF) // shifts leave AF as-is
		var of ir.Value
		if cnt != 1 {
			of = l.matFlag(fOF) // and OF, except for 1-bit shifts
		}
		v := l.readOpVal(k, in, in.Dst, size)
		cv := ir.Int(ir.I64, uint64(cnt))
		var res ir.Value
		switch in.Op {
		case x86.SHL:
			res = l.mask(l.b.Shl(v, cv), size)
		case x86.SHR:
			res = l.b.LShr(v, cv) // v is masked; high bits already zero
		case x86.SAR:
			res = l.mask(l.b.AShr(l.sext64(v, size), cv), size)
		}
		l.writeDst(k, in, in.Dst, res)
		fargs := []ir.Value{v, res, af}
		if cnt != 1 {
			fargs = append(fargs, of)
		}
		l.flags = flagState{kind: TFShift, w: size, op: in.Op, cnt: cnt, args: fargs}

	case x86.CMOVCC:
		cond := l.cond(in.Cond)
		size := in.Dst.Size
		// The source is read unconditionally; if that deoptimizes (fault
		// or penalty) on an untaken cmov the exit state is the pre-state
		// and the block engine re-executes with exact semantics.
		v := l.readOpVal(k, in, in.Src, size)
		taken := l.regMerge(in.Dst.Reg, size, v)
		notTaken := l.cur[in.Dst.Reg]
		if size == 4 {
			// A 32-bit cmov zeroes the upper half even when not taken.
			notTaken = l.b.And(notTaken, ir.Int(ir.I64, 0xFFFFFFFF))
		}
		l.cur[in.Dst.Reg] = l.b.Select(cond, taken, notTaken)

	case x86.SETCC:
		cond := l.cond(in.Cond)
		l.writeDst(k, in, in.Dst, l.b.ZExt(cond, ir.I64))

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
// follow emu.execSSE: a scalar load zeroes the high lane, scalar register
// moves and arithmetic preserve it, MOVQ zeroes it.
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
	// load through the deoptimizing intrinsic.
	srcLo := func() ir.Value {
		if in.Src.Kind == x86.KMem {
			return l.memLoad(k, in, in.Src, 8)
		}
		return l.curX[in.Src.Reg-x86.XMM0][0]
	}
	if in.Dst.Kind == x86.KMem { // movsd m64, xmm
		l.memStore(k, in, in.Dst, l.curX[in.Src.Reg-x86.XMM0][0])
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
	case x86.MOVAPD, x86.MOVAPS, x86.MOVDQA:
		*d = l.curX[in.Src.Reg-x86.XMM0]
	case x86.PXOR, x86.XORPD, x86.XORPS:
		s := l.curX[in.Src.Reg-x86.XMM0]
		d[0], d[1] = l.b.Xor(d[0], s[0]), l.b.Xor(d[1], s[1])
	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD:
		b := l.b.Bitcast(srcLo(), ir.Double)
		a := l.b.Bitcast(d[0], ir.Double)
		var r *ir.Inst
		switch in.Op {
		case x86.ADDSD:
			r = l.b.FAdd(a, b)
		case x86.SUBSD:
			r = l.b.FSub(a, b)
		case x86.MULSD:
			r = l.b.FMul(a, b)
		case x86.DIVSD:
			r = l.b.FDiv(a, b)
		}
		d[0] = l.b.Bitcast(r, ir.I64)
	}
}
