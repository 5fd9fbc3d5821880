package jit

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// emitter lowers one function to machine code.
type emitter struct {
	c      *Compiler
	f      *ir.Func
	alloc  *allocation
	b      *asm.Builder
	labels map[*ir.Block]asm.Label
	entry  asm.Label // bound at offset 0, the target of self-recursive calls

	frame     int32
	frameless bool
	allocaOff map[*ir.Inst]int32
}

func widthOf(t *ir.Type) uint8 {
	switch {
	case t.IsPtr():
		return 8
	case t.IsInt():
		switch {
		case t.Bits <= 8:
			return 1
		case t.Bits <= 16:
			return 2
		case t.Bits <= 32:
			return 4
		default:
			return 8
		}
	case t.Kind == ir.KFloat:
		return 4
	}
	return 8
}

func (e *emitter) run() error {
	// The frame sits below the pushed callee-saved registers: bias every
	// rbp-relative slot so spills do not collide with the save area.
	bias := int32(8 * len(e.alloc.usedSaved))
	for v, l := range e.alloc.locs {
		if !l.inReg {
			l.off -= bias
			e.alloc.locs[v] = l
		}
	}

	// Assign alloca frame space.
	e.allocaOff = make(map[*ir.Inst]int32)
	e.frame = e.alloc.frameSize
	for _, blk := range e.f.Blocks {
		for _, in := range blk.Insts {
			if in.Op == ir.OpAlloca {
				size := int32(in.ElemTy.Size() * in.NElem)
				size = (size + 15) &^ 15
				e.frame += size
				e.allocaOff[in] = -(e.frame + bias)
			}
		}
	}
	if e.frame%16 != 0 {
		e.frame += 16 - e.frame%16
	}

	// Prologue. Frameless leaf functions skip it entirely.
	e.frameless = e.frame == 0 && len(e.alloc.usedSaved) == 0
	if !e.frameless {
		e.b.I(x86.PUSH, x86.R64(x86.RBP))
		e.b.I(x86.MOV, x86.R64(x86.RBP), x86.R64(x86.RSP))
		for _, r := range e.alloc.usedSaved {
			e.b.I(x86.PUSH, x86.R64(r))
		}
		if e.frame > 0 {
			e.b.I(x86.SUB, x86.R64(x86.RSP), x86.Imm(int64(e.frame), 8))
		}
	}

	// Parameter arrival moves.
	var moves []pmove
	nInt, nFP := 0, 0
	for _, p := range e.f.Params {
		home, ok := e.alloc.locs[p]
		if !ok {
			// Unused parameter.
			if classOf(p.Ty) == classXMM {
				nFP++
			} else {
				nInt++
			}
			continue
		}
		if classOf(p.Ty) == classXMM {
			src := loc{inReg: true, reg: x86.XMM0 + x86.Reg(nFP)}
			nFP++
			moves = append(moves, pmove{dst: home, cls: classXMM, srcLoc: &src})
		} else {
			if nInt >= len(intArgRegs) {
				return fmt.Errorf("too many integer parameters")
			}
			src := loc{inReg: true, reg: intArgRegs[nInt]}
			nInt++
			moves = append(moves, pmove{dst: home, cls: classGP, srcLoc: &src})
		}
	}
	if err := e.parallelMoves(moves); err != nil {
		return err
	}

	for bi, blk := range e.f.Blocks {
		e.b.Bind(e.labels[blk])
		var next *ir.Block
		if bi+1 < len(e.f.Blocks) {
			next = e.f.Blocks[bi+1]
		}
		for _, in := range blk.Insts {
			if in.Op == ir.OpPhi || e.alloc.fused[in] || e.alloc.dead[in] {
				continue
			}
			if in.IsTerminator() {
				if err := e.emitTerminator(blk, in, next); err != nil {
					return fmt.Errorf("%s: %w", ir.FormatInst(in), err)
				}
				continue
			}
			if err := e.emitInst(in); err != nil {
				return fmt.Errorf("%s: %w", ir.FormatInst(in), err)
			}
		}
	}
	return nil
}

var intArgRegs = []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}

// ---- value staging ----

func (e *emitter) homeOf(v ir.Value) (loc, bool) {
	l, ok := e.alloc.locs[v]
	return l, ok
}

func stackOp(size uint8, off int32) x86.Operand {
	return x86.MemBD(size, x86.RBP, off)
}

// valueGP places an integer/pointer value in a register, using scratch when
// it has no register home.
func (e *emitter) valueGP(v ir.Value, scratch x86.Reg) (x86.Reg, error) {
	switch x := v.(type) {
	case *ir.Inst, *ir.Param:
		if in, ok := v.(*ir.Inst); ok && in.Op == ir.OpAlloca {
			e.b.I(x86.LEA, x86.R64(scratch), stackOp(8, e.allocaOff[in]))
			return scratch, nil
		}
		l, ok := e.homeOf(v)
		if !ok {
			return 0, fmt.Errorf("value %s has no home", v.Ident())
		}
		if l.inReg {
			return l.reg, nil
		}
		e.b.I(x86.MOV, x86.R64(scratch), stackOp(8, l.off))
		return scratch, nil
	case *ir.ConstInt:
		e.b.I(x86.MOV, x86.R64(scratch), x86.Imm(int64(x.V), 8))
		return scratch, nil
	case *ir.Global:
		e.b.I(x86.MOV, x86.R64(scratch), x86.Imm(int64(x.Addr), 8))
		return scratch, nil
	case *ir.Undef, *ir.Zero:
		e.b.I(x86.XOR, x86.R32(scratch), x86.R32(scratch))
		return scratch, nil
	case *ir.ConstFloat:
		e.b.I(x86.MOV, x86.R64(scratch), x86.Imm(int64(x.Bits()), 8))
		return scratch, nil
	}
	return 0, fmt.Errorf("cannot stage %T", v)
}

// fusedLoad returns the load instruction when v is a memory-operand-fused
// load.
func (e *emitter) fusedLoad(v ir.Value) *ir.Inst {
	if ld, ok := v.(*ir.Inst); ok && ld.Op == ir.OpLoad && e.alloc.fused[ld] {
		return ld
	}
	return nil
}

// operandTouchesScratch reports whether a memory operand references the
// emitter's scratch registers (it then cannot stay live across staging).
func operandTouchesScratch(op x86.Operand) bool {
	if op.Kind != x86.KMem {
		return false
	}
	m := op.Mem
	return m.Base == scratchGP || m.Base == scratchGP2 ||
		m.Index == scratchGP || m.Index == scratchGP2
}

// fusedLoadOperand resolves a fused load into a memory operand, or
// materializes it into the given register when the addressing mode would
// collide with later scratch use.
func (e *emitter) fusedLoadOperand(ld *ir.Inst, size uint8, gpMat, xmmMat x86.Reg) (x86.Operand, error) {
	op, err := e.memOperand(ld.Args[0], size)
	if err != nil {
		return x86.Operand{}, err
	}
	if !operandTouchesScratch(op) {
		return op, nil
	}
	if classOf(ld.Ty) == classXMM {
		mov := x86.MOVSD_X
		if ld.Ty.Kind == ir.KFloat {
			mov = x86.MOVSS_X
		}
		e.b.I(mov, x86.X(xmmMat), op)
		return x86.RegOp(xmmMat, 16), nil
	}
	e.b.I(x86.MOV, x86.RegOp(gpMat, size), op)
	return x86.RegOp(gpMat, size), nil
}

// gpSrcOperand returns an ALU source operand for v: an immediate when it is
// a small constant, the home register, the spill slot, or a staged scratch.
func (e *emitter) gpSrcOperand(v ir.Value, size uint8, scratch x86.Reg) (x86.Operand, error) {
	if c, ok := v.(*ir.ConstInt); ok {
		sv := int64(c.V)
		if size == 8 {
			sv = int64(c.V)
		} else {
			sv = int64(int32(uint32(c.V)))
		}
		if sv >= -(1<<31) && sv < 1<<31 {
			return x86.Imm(sv, size), nil
		}
	}
	switch v.(type) {
	case *ir.Inst, *ir.Param:
		if in, ok := v.(*ir.Inst); !ok || in.Op != ir.OpAlloca {
			l, ok := e.homeOf(v)
			if !ok {
				return x86.Operand{}, fmt.Errorf("value %s has no home", v.Ident())
			}
			if l.inReg {
				return x86.RegOp(l.reg, size), nil
			}
			return stackOp(size, l.off), nil
		}
	}
	r, err := e.valueGP(v, scratch)
	if err != nil {
		return x86.Operand{}, err
	}
	return x86.RegOp(r, size), nil
}

// dstGP returns the accumulator register for in's result.
func (e *emitter) dstGP(in *ir.Inst) x86.Reg {
	if l, ok := e.homeOf(in); ok && l.inReg {
		return l.reg
	}
	return scratchGP
}

// writeBackGP stores the accumulator to in's home if it is spilled.
func (e *emitter) writeBackGP(in *ir.Inst, r x86.Reg) {
	l, ok := e.homeOf(in)
	if !ok {
		return // result unused
	}
	if l.inReg {
		if l.reg != r {
			e.b.I(x86.MOV, x86.R64(l.reg), x86.R64(r))
		}
		return
	}
	e.b.I(x86.MOV, stackOp(8, l.off), x86.R64(r))
}

// moveIntoGP loads v into the specific register d.
func (e *emitter) moveIntoGP(d x86.Reg, v ir.Value) error {
	if l, ok := e.homeOf(v); ok && l.inReg && l.reg == d {
		if in, isA := v.(*ir.Inst); !isA || in.Op != ir.OpAlloca {
			return nil
		}
	}
	r, err := e.valueGP(v, d)
	if err != nil {
		return err
	}
	if r != d {
		e.b.I(x86.MOV, x86.R64(d), x86.R64(r))
	}
	return nil
}

// valueXMM places an FP/vector value in an XMM register.
func (e *emitter) valueXMM(v ir.Value, scratch x86.Reg) (x86.Reg, error) {
	switch x := v.(type) {
	case *ir.Inst, *ir.Param:
		l, ok := e.homeOf(v)
		if !ok {
			return 0, fmt.Errorf("value %s has no home", v.Ident())
		}
		if l.inReg {
			return l.reg, nil
		}
		e.b.I(x86.MOVUPS, x86.X(scratch), stackOp(16, l.off))
		return scratch, nil
	case *ir.ConstFloat:
		if x.V == 0 {
			e.b.I(x86.PXOR, x86.X(scratch), x86.X(scratch))
			return scratch, nil
		}
		e.b.I(x86.MOV, x86.R64(scratchGP2), x86.Imm(int64(x.Bits()), 8))
		if x.Ty.Kind == ir.KFloat {
			e.b.I(x86.MOVD, x86.X(scratch), x86.R32(scratchGP2))
		} else {
			e.b.I(x86.MOVQGP, x86.X(scratch), x86.R64(scratchGP2))
		}
		return scratch, nil
	case *ir.ConstInt:
		if x.V == 0 && x.Hi == 0 {
			e.b.I(x86.PXOR, x86.X(scratch), x86.X(scratch))
			return scratch, nil
		}
		e.b.I(x86.MOV, x86.R64(scratchGP2), x86.Imm(int64(x.V), 8))
		e.b.I(x86.MOVQGP, x86.X(scratch), x86.R64(scratchGP2))
		if x.Hi != 0 {
			e.b.I(x86.MOV, x86.R64(scratchGP2), x86.Imm(int64(x.Hi), 8))
			e.b.I(x86.MOVQGP, x86.X(scratchXMM2), x86.R64(scratchGP2))
			e.b.I(x86.PUNPCKLQDQ, x86.X(scratch), x86.X(scratchXMM2))
		}
		return scratch, nil
	case *ir.Undef, *ir.Zero:
		e.b.I(x86.PXOR, x86.X(scratch), x86.X(scratch))
		return scratch, nil
	}
	return 0, fmt.Errorf("cannot stage %T in xmm", v)
}

// dstXMM returns the accumulator XMM register for in.
func (e *emitter) dstXMM(in *ir.Inst) x86.Reg {
	if l, ok := e.homeOf(in); ok && l.inReg {
		return l.reg
	}
	return scratchXMM
}

func (e *emitter) writeBackXMM(in *ir.Inst, r x86.Reg) {
	l, ok := e.homeOf(in)
	if !ok {
		return
	}
	if l.inReg {
		if l.reg != r {
			e.b.I(x86.MOVAPS, x86.X(l.reg), x86.X(r))
		}
		return
	}
	e.b.I(x86.MOVUPS, stackOp(16, l.off), x86.X(r))
}

// moveIntoXMM loads v into the specific XMM register d.
func (e *emitter) moveIntoXMM(d x86.Reg, v ir.Value) error {
	if l, ok := e.homeOf(v); ok && l.inReg && l.reg == d {
		return nil
	}
	r, err := e.valueXMM(v, d)
	if err != nil {
		return err
	}
	if r != d {
		e.b.I(x86.MOVAPS, x86.X(d), x86.X(r))
	}
	return nil
}

// ---- address handling ----

// stripFusedCasts looks through fused register-aliasing casts (pointer
// bitcasts, inttoptr, ptrtoint).
func (e *emitter) stripFusedCasts(v ir.Value) ir.Value {
	for {
		in, ok := v.(*ir.Inst)
		if !ok || !e.alloc.fused[in] {
			return v
		}
		switch in.Op {
		case ir.OpBitcast, ir.OpIntToPtr, ir.OpPtrToInt:
			v = in.Args[0]
		default:
			return v
		}
	}
}

// memOperand builds an addressing-mode operand for a load at ptr, resolving
// the fused address chain (bitcasts, one GEP, a constant index adjustment)
// into a single [base + index*scale + disp] form.
func (e *emitter) memOperand(ptr ir.Value, size uint8) (x86.Operand, error) {
	ptr = e.stripFusedCasts(ptr)
	if g, ok := ptr.(*ir.Inst); ok && g.Op == ir.OpGEP && e.alloc.fused[g] {
		baseV := e.stripFusedCasts(g.Args[0])
		elem := int64(g.ElemTy.Size())
		// Constant displacement folded from the index expression.
		idxV := e.stripFusedCasts(g.Args[1])
		disp := int64(0)
		if ai, ok := idxV.(*ir.Inst); ok && ai.Op == ir.OpAdd && e.alloc.fused[ai] {
			if c, isC := ai.Args[1].(*ir.ConstInt); isC {
				disp = int64(c.V) * elem
				idxV = ai.Args[0]
			}
		}
		// Absolute addressing for global bases with constant indices.
		if gl, ok := baseV.(*ir.Global); ok && gl.Addr != 0 {
			if c, isC := idxV.(*ir.ConstInt); isC {
				abs := int64(gl.Addr) + int64(c.V)*elem + disp
				if abs >= 0 && abs < 1<<31 {
					return x86.MemAbs(size, int32(abs)), nil
				}
			}
		}
		base, err := e.valueGP(baseV, scratchGP)
		if err != nil {
			return x86.Operand{}, err
		}
		if c, isC := idxV.(*ir.ConstInt); isC {
			d := int64(c.V)*elem + disp
			if d >= -(1<<31) && d < 1<<31 {
				return x86.MemBD(size, base, int32(d)), nil
			}
		} else if disp >= -(1<<31) && disp < 1<<31 {
			idx, err := e.valueGP(idxV, scratchGP2)
			if err != nil {
				return x86.Operand{}, err
			}
			return x86.MemBIS(size, base, idx, uint8(elem), int32(disp)), nil
		}
	}
	if g, ok := ptr.(*ir.Global); ok {
		if g.Addr != 0 && g.Addr < 1<<31 {
			return x86.MemAbs(size, int32(g.Addr)), nil
		}
	}
	r, err := e.valueGP(ptr, scratchGP)
	if err != nil {
		return x86.Operand{}, err
	}
	return x86.MemBD(size, r, 0), nil
}

// memAddrInto collapses the full address into the given register, freeing
// the other scratch for value staging (used by stores).
func (e *emitter) memAddrInto(ptr ir.Value, d x86.Reg) error {
	op, err := e.memOperand(ptr, 8)
	if err != nil {
		return err
	}
	if op.Kind == x86.KMem && op.Mem.Index == x86.NoReg && op.Mem.Disp == 0 && op.Mem.Base != x86.NoReg {
		if op.Mem.Base != d {
			e.b.I(x86.MOV, x86.R64(d), x86.R64(op.Mem.Base))
		}
		return nil
	}
	e.b.I(x86.LEA, x86.R64(d), op)
	return nil
}

// ---- condition handling ----

var predCond = map[ir.Pred]x86.Cond{
	ir.PredEQ: x86.CondE, ir.PredNE: x86.CondNE,
	ir.PredSLT: x86.CondL, ir.PredSLE: x86.CondLE,
	ir.PredSGT: x86.CondG, ir.PredSGE: x86.CondGE,
	ir.PredULT: x86.CondB, ir.PredULE: x86.CondBE,
	ir.PredUGT: x86.CondA, ir.PredUGE: x86.CondAE,
}

// emitCmp emits the flag-setting comparison for an icmp and returns the
// condition code to test.
func (e *emitter) emitCmp(ic *ir.Inst) (x86.Cond, error) {
	size := widthOf(ic.Args[0].Type())
	// The fused-load operand must be resolved before staging a, so that a
	// scratch-register materialization cannot clobber it.
	var bOp x86.Operand
	var err error
	if ld := e.fusedLoad(ic.Args[1]); ld != nil {
		bOp, err = e.fusedLoadOperand(ld, size, scratchGP2, scratchXMM2)
	} else {
		bOp, err = e.gpSrcOperand(ic.Args[1], size, scratchGP2)
	}
	if err != nil {
		return 0, err
	}
	a, err := e.valueGP(ic.Args[0], scratchGP)
	if err != nil {
		return 0, err
	}
	e.b.I(x86.CMP, x86.RegOp(a, size), bOp)
	cond, ok := predCond[ic.Pred]
	if !ok {
		return 0, fmt.Errorf("unsupported icmp predicate %s", ic.Pred)
	}
	return cond, nil
}

// emitFCmp emits a ucomisd/ucomiss and materializes the i1 result in dst.
func (e *emitter) emitFCmp(in *ir.Inst) error {
	isF32 := in.Args[0].Type().Kind == ir.KFloat
	comi := x86.UCOMISD
	if isF32 {
		comi = x86.UCOMISS
	}
	a, b := in.Args[0], in.Args[1]
	swap := false
	var cond x86.Cond
	switch in.Pred {
	case ir.PredOLT:
		swap, cond = true, x86.CondA
	case ir.PredOLE:
		swap, cond = true, x86.CondAE
	case ir.PredOGT:
		cond = x86.CondA
	case ir.PredOGE:
		cond = x86.CondAE
	case ir.PredUNO:
		cond = x86.CondP
	case ir.PredOEQ, ir.PredONE:
		// handled below
	default:
		return fmt.Errorf("unsupported fcmp predicate %s", in.Pred)
	}
	if swap {
		a, b = b, a
	}
	ra, err := e.valueXMM(a, scratchXMM)
	if err != nil {
		return err
	}
	rb, err := e.valueXMM(b, scratchXMM2)
	if err != nil {
		return err
	}
	e.b.I(comi, x86.X(ra), x86.X(rb))
	d := e.dstGP(in)
	switch in.Pred {
	case ir.PredOEQ:
		// ZF=1 and PF=0.
		e.b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondE, Dst: x86.R8L(d)})
		e.b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondNP, Dst: x86.R8L(scratchGP2)})
		e.b.I(x86.AND, x86.R8L(d), x86.R8L(scratchGP2))
	case ir.PredONE:
		// ZF=0 and PF=0.
		e.b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondNE, Dst: x86.R8L(d)})
		e.b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondNP, Dst: x86.R8L(scratchGP2)})
		e.b.I(x86.AND, x86.R8L(d), x86.R8L(scratchGP2))
	default:
		e.b.Emit(x86.Inst{Op: x86.SETCC, Cond: cond, Dst: x86.R8L(d)})
	}
	e.b.I(x86.MOVZX, x86.R32(d), x86.R8L(d))
	e.writeBackGP(in, d)
	return nil
}

// ---- terminators ----

func (e *emitter) emitTerminator(blk *ir.Block, in *ir.Inst, next *ir.Block) error {
	switch in.Op {
	case ir.OpRet:
		if len(in.Args) > 0 {
			v := in.Args[0]
			if classOf(v.Type()) == classXMM {
				if err := e.moveIntoXMM(x86.XMM0, v); err != nil {
					return err
				}
			} else {
				if err := e.moveIntoGP(x86.RAX, v); err != nil {
					return err
				}
			}
		}
		e.emitEpilogue()
		return nil

	case ir.OpBr:
		dst := in.Blocks[0]
		if err := e.emitEdgeMoves(blk, dst); err != nil {
			return err
		}
		if dst != next {
			e.b.Jmp(e.labels[dst])
		}
		return nil

	case ir.OpCondBr:
		taken, other := in.Blocks[0], in.Blocks[1]
		var cond x86.Cond
		if ic, ok := in.Args[0].(*ir.Inst); ok && e.alloc.fused[ic] {
			c, err := e.emitCmp(ic)
			if err != nil {
				return err
			}
			cond = c
		} else {
			r, err := e.valueGP(in.Args[0], scratchGP)
			if err != nil {
				return err
			}
			e.b.I(x86.TEST, x86.R8L(r), x86.R8L(r))
			cond = x86.CondNE
		}
		// Phi-bearing successors have this block as their only pred and we
		// ended with an unconditional br after edge splitting, so no moves
		// are needed here.
		if other == next {
			e.b.Jcc(cond, e.labels[taken])
			return nil
		}
		if taken == next {
			e.b.Jcc(cond.Negate(), e.labels[other])
			return nil
		}
		e.b.Jcc(cond, e.labels[taken])
		e.b.Jmp(e.labels[other])
		return nil

	case ir.OpUnreachable:
		e.b.I(x86.UD2)
		return nil
	}
	return fmt.Errorf("unsupported terminator")
}

func (e *emitter) emitEpilogue() {
	if !e.frameless {
		if e.frame > 0 {
			e.b.I(x86.ADD, x86.R64(x86.RSP), x86.Imm(int64(e.frame), 8))
		}
		for i := len(e.alloc.usedSaved) - 1; i >= 0; i-- {
			e.b.I(x86.POP, x86.R64(e.alloc.usedSaved[i]))
		}
		e.b.I(x86.POP, x86.R64(x86.RBP))
	}
	e.b.Ret()
}

// emitEdgeMoves performs the parallel phi copies for the edge blk -> dst.
func (e *emitter) emitEdgeMoves(blk, dst *ir.Block) error {
	var moves []pmove
	for _, in := range dst.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		home, ok := e.homeOf(in)
		if !ok {
			continue // dead phi
		}
		var src ir.Value
		for k, inc := range in.Incoming {
			if inc == blk {
				src = in.Args[k]
				break
			}
		}
		if src == nil {
			return fmt.Errorf("phi %s has no incoming for %s", in.Ident(), blk.Nam)
		}
		m := pmove{dst: home, cls: classOf(in.Ty), srcVal: src}
		if sl, ok := e.homeOf(src); ok {
			if _, isAlloca := allocaInst(src); !isAlloca {
				m.srcLoc = &sl
				m.srcVal = src
			}
		}
		moves = append(moves, m)
	}
	return e.parallelMoves(moves)
}

func allocaInst(v ir.Value) (*ir.Inst, bool) {
	in, ok := v.(*ir.Inst)
	if ok && in.Op == ir.OpAlloca {
		return in, true
	}
	return nil, false
}
