package jit

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/x86"
)

// emitInst lowers one non-terminator, non-phi instruction.
func (e *emitter) emitInst(in *ir.Inst) error {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		if classOf(in.Ty) == classXMM {
			return e.emitVecIntBin(in)
		}
		return e.emitBinGP(in)
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		return e.emitShift(in)
	case ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem:
		return e.emitDiv(in)

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return e.emitFBin(in)
	case ir.OpSqrt:
		r, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		d := e.dstXMM(in)
		e.b.I(x86.SQRTSD, x86.X(d), x86.X(r))
		e.writeBackXMM(in, d)
		return nil
	case ir.OpFMulAdd:
		// a*b + c without FMA (AVX disabled): mulsd + addsd via scratch.
		if err := e.moveIntoXMM(scratchXMM, in.Args[0]); err != nil {
			return err
		}
		rb, err := e.valueXMM(in.Args[1], scratchXMM2)
		if err != nil {
			return err
		}
		e.b.I(x86.MULSD, x86.X(scratchXMM), x86.X(rb))
		rc, err := e.valueXMM(in.Args[2], scratchXMM2)
		if err != nil {
			return err
		}
		e.b.I(x86.ADDSD, x86.X(scratchXMM), x86.X(rc))
		e.writeBackXMM(in, scratchXMM)
		return nil
	case ir.OpCtpop:
		src, err := e.valueGP(in.Args[0], scratchGP)
		if err != nil {
			return err
		}
		d := e.dstGP(in)
		if widthOf(in.Ty) < 4 {
			e.b.I(x86.MOVZX, x86.R32(scratchGP2), x86.R8L(src))
			e.b.I(x86.POPCNT, x86.R32(d), x86.R32(scratchGP2))
		} else {
			e.b.I(x86.POPCNT, x86.RegOp(d, widthOf(in.Ty)), x86.RegOp(src, widthOf(in.Ty)))
		}
		e.writeBackGP(in, d)
		return nil

	case ir.OpICmp:
		cond, err := e.emitCmp(in)
		if err != nil {
			return err
		}
		d := e.dstGP(in)
		e.b.Emit(x86.Inst{Op: x86.SETCC, Cond: cond, Dst: x86.R8L(d)})
		e.b.I(x86.MOVZX, x86.R32(d), x86.R8L(d))
		e.writeBackGP(in, d)
		return nil
	case ir.OpFCmp:
		return e.emitFCmp(in)

	case ir.OpSelect:
		return e.emitSelect(in)

	case ir.OpTrunc:
		// Narrowing is a register copy: consumers use the narrow width.
		return e.emitGPCopy(in, in.Args[0])
	case ir.OpZExt:
		src := in.Args[0]
		sw := widthOf(src.Type())
		d := e.dstGP(in)
		// zext of a fused load: movzx/mov32 with a memory operand.
		if ld := e.fusedLoad(src); ld != nil {
			op, err := e.memOperand(ld.Args[0], sw)
			if err != nil {
				return err
			}
			if sw <= 2 {
				e.b.I(x86.MOVZX, x86.R32(d), op)
			} else {
				e.b.I(x86.MOV, x86.R32(d), op)
			}
			e.writeBackGP(in, d)
			return nil
		}
		r, err := e.valueGP(src, scratchGP)
		if err != nil {
			return err
		}
		switch sw {
		case 1, 2:
			e.b.I(x86.MOVZX, x86.R32(d), x86.RegOp(r, sw))
		default: // 4 -> zero upper via 32-bit move
			e.b.I(x86.MOV, x86.R32(d), x86.R32(r))
		}
		// i1 sources are stored as 0/1 bytes already; mask to be safe.
		if src.Type().Equal(ir.I1) {
			e.b.I(x86.AND, x86.R32(d), x86.Imm(1, 4))
		}
		e.writeBackGP(in, d)
		return nil
	case ir.OpSExt:
		src := in.Args[0]
		sw := widthOf(src.Type())
		d := e.dstGP(in)
		dw := widthOf(in.Ty)
		// sext of a fused load: movsx/movsxd with a memory operand.
		if ld := e.fusedLoad(src); ld != nil {
			op, err := e.memOperand(ld.Args[0], sw)
			if err != nil {
				return err
			}
			if sw <= 2 {
				e.b.I(x86.MOVSX, x86.RegOp(d, dw), op)
			} else {
				e.b.I(x86.MOVSXD, x86.R64(d), op)
			}
			e.writeBackGP(in, d)
			return nil
		}
		r, err := e.valueGP(src, scratchGP)
		if err != nil {
			return err
		}
		switch {
		case sw <= 2:
			e.b.I(x86.MOVSX, x86.RegOp(d, dw), x86.RegOp(r, sw))
		case sw == 4 && dw == 8:
			e.b.I(x86.MOVSXD, x86.R64(d), x86.R32(r))
		default:
			e.b.I(x86.MOV, x86.R64(d), x86.R64(r))
		}
		e.writeBackGP(in, d)
		return nil

	case ir.OpPtrToInt, ir.OpIntToPtr:
		return e.emitGPCopy(in, in.Args[0])
	case ir.OpBitcast:
		return e.emitBitcast(in)
	case ir.OpSIToFP:
		r, err := e.valueGP(in.Args[0], scratchGP)
		if err != nil {
			return err
		}
		d := e.dstXMM(in)
		sw := widthOf(in.Args[0].Type())
		if sw < 4 {
			e.b.I(x86.MOVSX, x86.R32(scratchGP2), x86.RegOp(r, sw))
			r, sw = scratchGP2, 4
		}
		cvt := x86.CVTSI2SD
		if in.Ty.Kind == ir.KFloat {
			cvt = x86.CVTSI2SS
		}
		e.b.I(cvt, x86.X(d), x86.RegOp(r, sw))
		e.writeBackXMM(in, d)
		return nil
	case ir.OpFPToSI:
		r, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		d := e.dstGP(in)
		w := widthOf(in.Ty)
		if w < 4 {
			w = 4
		}
		e.b.I(x86.CVTTSD2SI, x86.RegOp(d, w), x86.X(r))
		e.writeBackGP(in, d)
		return nil
	case ir.OpFPExt:
		r, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		d := e.dstXMM(in)
		e.b.I(x86.CVTSS2SD, x86.X(d), x86.X(r))
		e.writeBackXMM(in, d)
		return nil
	case ir.OpFPTrunc:
		r, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		d := e.dstXMM(in)
		e.b.I(x86.CVTSD2SS, x86.X(d), x86.X(r))
		e.writeBackXMM(in, d)
		return nil

	case ir.OpGEP:
		return e.emitGEP(in)
	case ir.OpLoad:
		return e.emitLoad(in)
	case ir.OpStore:
		return e.emitStore(in)
	case ir.OpAlloca:
		// Frame space was reserved; materialize the address into the home.
		if l, ok := e.homeOf(in); ok {
			if l.inReg {
				e.b.I(x86.LEA, x86.R64(l.reg), stackOp(8, e.allocaOff[in]))
			} else {
				e.b.I(x86.LEA, x86.R64(scratchGP), stackOp(8, e.allocaOff[in]))
				e.b.I(x86.MOV, stackOp(8, l.off), x86.R64(scratchGP))
			}
		}
		return nil

	case ir.OpExtractElement:
		return e.emitExtractElement(in)
	case ir.OpInsertElement:
		return e.emitInsertElement(in)
	case ir.OpShuffleVector:
		return e.emitShuffle(in)

	case ir.OpCall:
		return e.emitCall(in)
	}
	return fmt.Errorf("unsupported op %s", in.Op)
}

var gpALUOp = map[ir.Op]x86.Op{
	ir.OpAdd: x86.ADD, ir.OpSub: x86.SUB, ir.OpAnd: x86.AND,
	ir.OpOr: x86.OR, ir.OpXor: x86.XOR,
}

func (e *emitter) emitBinGP(in *ir.Inst) error {
	size := widthOf(in.Ty)
	d := e.dstGP(in)
	a, bb := in.Args[0], in.Args[1]

	if in.Op == ir.OpMul {
		if size < 4 {
			size = 4 // imul has no 8-bit form; upper bits are unobserved
		}
		if ld := e.fusedLoad(bb); ld != nil {
			bOp, err := e.fusedLoadOperand(ld, size, scratchGP2, scratchXMM2)
			if err != nil {
				return err
			}
			if err := e.moveIntoGP(d, a); err != nil {
				return err
			}
			e.b.I(x86.IMUL, x86.RegOp(d, size), bOp)
			e.writeBackGP(in, d)
			return nil
		}
		if err := e.stageAccum(d, a, bb, true); err != nil {
			return err
		}
		bOp, err := e.gpSrcOperand(bb, size, scratchGP2)
		if err != nil {
			return err
		}
		if bOp.Kind == x86.KImm {
			e.b.I(x86.IMUL3, x86.RegOp(d, size), x86.RegOp(d, size), bOp)
		} else {
			if bOp.Kind == x86.KReg && bOp.Reg == d {
				// d holds b already (staged by commutativity).
				aOp, err := e.gpSrcOperand(a, size, scratchGP2)
				if err != nil {
					return err
				}
				if aOp.Kind == x86.KImm {
					e.b.I(x86.IMUL3, x86.RegOp(d, size), x86.RegOp(d, size), aOp)
				} else {
					e.b.I(x86.IMUL, x86.RegOp(d, size), aOp)
				}
			} else {
				e.b.I(x86.IMUL, x86.RegOp(d, size), bOp)
			}
		}
		e.writeBackGP(in, d)
		return nil
	}

	op := gpALUOp[in.Op]
	commutative := in.Op != ir.OpSub
	if ld := e.fusedLoad(bb); ld != nil {
		bOp, err := e.fusedLoadOperand(ld, size, scratchGP2, scratchXMM2)
		if err != nil {
			return err
		}
		if err := e.moveIntoGP(d, a); err != nil {
			return err
		}
		e.b.I(op, x86.RegOp(d, size), bOp)
		e.writeBackGP(in, d)
		return nil
	}
	bHome, bInReg := e.homeOf(bb)
	bIsD := bInReg && bHome.inReg && bHome.reg == d

	if bIsD && !commutative {
		// d currently holds b; park it.
		e.b.I(x86.MOV, x86.R64(scratchGP2), x86.R64(d))
		if err := e.moveIntoGP(d, a); err != nil {
			return err
		}
		e.b.I(op, x86.RegOp(d, size), x86.RegOp(scratchGP2, size))
		e.writeBackGP(in, d)
		return nil
	}
	if bIsD && commutative {
		aOp, err := e.gpSrcOperand(a, size, scratchGP2)
		if err != nil {
			return err
		}
		e.b.I(op, x86.RegOp(d, size), aOp)
		e.writeBackGP(in, d)
		return nil
	}
	if err := e.moveIntoGP(d, a); err != nil {
		return err
	}
	bOp, err := e.gpSrcOperand(bb, size, scratchGP2)
	if err != nil {
		return err
	}
	e.b.I(op, x86.RegOp(d, size), bOp)
	e.writeBackGP(in, d)
	return nil
}

// stageAccum places a (or b when commutative and b already lives in d) into
// the accumulator d.
func (e *emitter) stageAccum(d x86.Reg, a, b ir.Value, commutative bool) error {
	if commutative {
		if bh, ok := e.homeOf(b); ok && bh.inReg && bh.reg == d {
			return nil // use b as the accumulator
		}
	}
	return e.moveIntoGP(d, a)
}

func (e *emitter) emitShift(in *ir.Inst) error {
	size := widthOf(in.Ty)
	var op x86.Op
	switch in.Op {
	case ir.OpShl:
		op = x86.SHL
	case ir.OpLShr:
		op = x86.SHR
	case ir.OpAShr:
		op = x86.SAR
	}
	d := e.dstGP(in)
	if c, ok := in.Args[1].(*ir.ConstInt); ok {
		if err := e.moveIntoGP(d, in.Args[0]); err != nil {
			return err
		}
		e.b.I(op, x86.RegOp(d, size), x86.Imm(int64(c.V), 1))
		e.writeBackGP(in, d)
		return nil
	}
	// Variable count: stage through CL, preserving RCX.
	target := d
	if d == x86.RCX {
		target = scratchGP
	}
	if err := e.moveIntoGP(target, in.Args[0]); err != nil {
		return err
	}
	cnt, err := e.valueGP(in.Args[1], scratchGP2)
	if err != nil {
		return err
	}
	if cnt != x86.RCX {
		e.b.I(x86.MOV, x86.R64(scratchGP2), x86.R64(x86.RCX)) // save rcx
		e.b.I(x86.MOV, x86.R8L(x86.RCX), x86.R8L(cnt))
		e.b.I(op, x86.RegOp(target, size), x86.RegOp(x86.RCX, 1))
		e.b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(scratchGP2)) // restore
	} else {
		e.b.I(op, x86.RegOp(target, size), x86.RegOp(x86.RCX, 1))
	}
	if target != d {
		e.b.I(x86.MOV, x86.R64(d), x86.R64(target))
	}
	e.writeBackGP(in, d)
	return nil
}

func (e *emitter) emitDiv(in *ir.Inst) error {
	size := widthOf(in.Ty)
	if size < 4 {
		return fmt.Errorf("narrow division is not supported")
	}
	signed := in.Op == ir.OpSDiv || in.Op == ir.OpSRem
	wantRem := in.Op == ir.OpURem || in.Op == ir.OpSRem

	e.b.I(x86.PUSH, x86.R64(x86.RAX))
	e.b.I(x86.PUSH, x86.R64(x86.RDX))
	den, err := e.valueGP(in.Args[1], scratchGP)
	if err != nil {
		return err
	}
	if den != scratchGP {
		e.b.I(x86.MOV, x86.R64(scratchGP), x86.R64(den))
	}
	num, err := e.valueGP(in.Args[0], scratchGP2)
	if err != nil {
		return err
	}
	if num != x86.RAX {
		e.b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(num))
	}
	if signed {
		if size == 8 {
			e.b.I(x86.CQO)
		} else {
			e.b.I(x86.CDQ)
		}
		e.b.I(x86.IDIV, x86.RegOp(scratchGP, size))
	} else {
		e.b.I(x86.XOR, x86.R32(x86.RDX), x86.R32(x86.RDX))
		e.b.I(x86.DIV, x86.RegOp(scratchGP, size))
	}
	res := x86.RAX
	if wantRem {
		res = x86.RDX
	}
	e.b.I(x86.MOV, x86.R64(scratchGP), x86.R64(res))
	e.b.I(x86.POP, x86.R64(x86.RDX))
	e.b.I(x86.POP, x86.R64(x86.RAX))
	e.writeBackGP(in, scratchGP)
	return nil
}

var fpScalarOp = map[ir.Op]x86.Op{
	ir.OpFAdd: x86.ADDSD, ir.OpFSub: x86.SUBSD, ir.OpFMul: x86.MULSD, ir.OpFDiv: x86.DIVSD,
}
var fpScalar32Op = map[ir.Op]x86.Op{
	ir.OpFAdd: x86.ADDSS, ir.OpFSub: x86.SUBSS, ir.OpFMul: x86.MULSS, ir.OpFDiv: x86.DIVSS,
}
var fpVec64Op = map[ir.Op]x86.Op{
	ir.OpFAdd: x86.ADDPD, ir.OpFSub: x86.SUBPD, ir.OpFMul: x86.MULPD, ir.OpFDiv: x86.DIVPD,
}
var fpVec32Op = map[ir.Op]x86.Op{
	ir.OpFAdd: x86.ADDPS, ir.OpFSub: x86.SUBPS, ir.OpFMul: x86.MULPS, ir.OpFDiv: x86.DIVPS,
}

func (e *emitter) emitFBin(in *ir.Inst) error {
	var op x86.Op
	switch {
	case in.Ty.Kind == ir.KDouble:
		op = fpScalarOp[in.Op]
	case in.Ty.Kind == ir.KFloat:
		op = fpScalar32Op[in.Op]
	case in.Ty.IsVec() && in.Ty.Elem.Kind == ir.KDouble:
		op = fpVec64Op[in.Op]
	case in.Ty.IsVec() && in.Ty.Elem.Kind == ir.KFloat:
		op = fpVec32Op[in.Op]
	default:
		return fmt.Errorf("unsupported FP type %s", in.Ty)
	}
	d := e.dstXMM(in)
	a, bb := in.Args[0], in.Args[1]
	commutative := in.Op == ir.OpFAdd || in.Op == ir.OpFMul
	if ld := e.fusedLoad(bb); ld != nil {
		bOp, err := e.fusedLoadOperand(ld, widthOf(ld.Ty), scratchGP2, scratchXMM2)
		if err != nil {
			return err
		}
		if err := e.moveIntoXMM(d, a); err != nil {
			return err
		}
		e.b.I(op, x86.X(d), bOp)
		e.writeBackXMM(in, d)
		return nil
	}
	if bh, ok := e.homeOf(bb); ok && bh.inReg && bh.reg == d {
		if commutative {
			ra, err := e.valueXMM(a, scratchXMM2)
			if err != nil {
				return err
			}
			e.b.I(op, x86.X(d), x86.X(ra))
			e.writeBackXMM(in, d)
			return nil
		}
		e.b.I(x86.MOVAPS, x86.X(scratchXMM2), x86.X(d))
		if err := e.moveIntoXMM(d, a); err != nil {
			return err
		}
		e.b.I(op, x86.X(d), x86.X(scratchXMM2))
		e.writeBackXMM(in, d)
		return nil
	}
	if err := e.moveIntoXMM(d, a); err != nil {
		return err
	}
	rb, err := e.valueXMM(bb, scratchXMM2)
	if err != nil {
		return err
	}
	e.b.I(op, x86.X(d), x86.X(rb))
	e.writeBackXMM(in, d)
	return nil
}

var vecIntOp = map[ir.Op]x86.Op{
	ir.OpAdd: x86.PADDQ, ir.OpSub: x86.PSUBQ,
	ir.OpAnd: x86.PAND, ir.OpOr: x86.POR, ir.OpXor: x86.PXOR,
}
var vecIntOp32 = map[ir.Op]x86.Op{
	ir.OpAdd: x86.PADDD, ir.OpSub: x86.PSUBD,
	ir.OpAnd: x86.PAND, ir.OpOr: x86.POR, ir.OpXor: x86.PXOR,
}

// emitVecIntBin handles i128 and integer-vector bitwise/arithmetic ops.
func (e *emitter) emitVecIntBin(in *ir.Inst) error {
	table := vecIntOp
	if in.Ty.IsVec() && in.Ty.Elem.Bits == 32 {
		table = vecIntOp32
	}
	op, ok := table[in.Op]
	if !ok {
		return fmt.Errorf("unsupported vector op %s on %s", in.Op, in.Ty)
	}
	if in.Ty.IsInt() && in.Ty.Bits == 128 && (in.Op == ir.OpAdd || in.Op == ir.OpSub) {
		return fmt.Errorf("i128 add/sub is not supported by the backend")
	}
	d := e.dstXMM(in)
	a, bb := in.Args[0], in.Args[1]
	commutative := in.Op != ir.OpSub
	if bh, ok := e.homeOf(bb); ok && bh.inReg && bh.reg == d {
		if commutative {
			ra, err := e.valueXMM(a, scratchXMM2)
			if err != nil {
				return err
			}
			e.b.I(op, x86.X(d), x86.X(ra))
			e.writeBackXMM(in, d)
			return nil
		}
		e.b.I(x86.MOVAPS, x86.X(scratchXMM2), x86.X(d))
		if err := e.moveIntoXMM(d, a); err != nil {
			return err
		}
		e.b.I(op, x86.X(d), x86.X(scratchXMM2))
		e.writeBackXMM(in, d)
		return nil
	}
	if err := e.moveIntoXMM(d, a); err != nil {
		return err
	}
	rb, err := e.valueXMM(bb, scratchXMM2)
	if err != nil {
		return err
	}
	e.b.I(op, x86.X(d), x86.X(rb))
	e.writeBackXMM(in, d)
	return nil
}

// emitGPCopy implements value-preserving moves (trunc, ptr casts).
func (e *emitter) emitGPCopy(in *ir.Inst, src ir.Value) error {
	d := e.dstGP(in)
	if err := e.moveIntoGP(d, src); err != nil {
		return err
	}
	e.writeBackGP(in, d)
	return nil
}

func (e *emitter) emitBitcast(in *ir.Inst) error {
	from := classOf(in.Args[0].Type())
	to := classOf(in.Ty)
	switch {
	case from == classGP && to == classGP:
		return e.emitGPCopy(in, in.Args[0])
	case from == classXMM && to == classXMM:
		d := e.dstXMM(in)
		if err := e.moveIntoXMM(d, in.Args[0]); err != nil {
			return err
		}
		e.writeBackXMM(in, d)
		return nil
	case from == classGP && to == classXMM:
		r, err := e.valueGP(in.Args[0], scratchGP)
		if err != nil {
			return err
		}
		d := e.dstXMM(in)
		e.b.I(x86.MOVQGP, x86.X(d), x86.R64(r))
		e.writeBackXMM(in, d)
		return nil
	default: // XMM -> GP
		r, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		d := e.dstGP(in)
		e.b.I(x86.MOVQGP, x86.R64(d), x86.X(r))
		e.writeBackGP(in, d)
		return nil
	}
}

func (e *emitter) emitGEP(in *ir.Inst) error {
	d := e.dstGP(in)
	baseV := e.stripFusedCasts(in.Args[0])
	idxV := e.stripFusedCasts(in.Args[1])
	base, err := e.valueGP(baseV, d)
	if err != nil {
		return err
	}
	elem := int64(in.ElemTy.Size())
	if c, ok := idxV.(*ir.ConstInt); ok {
		disp := int64(c.V) * elem
		if disp == 0 {
			if base != d {
				e.b.I(x86.MOV, x86.R64(d), x86.R64(base))
			}
		} else if disp >= -(1<<31) && disp < 1<<31 {
			e.b.I(x86.LEA, x86.R64(d), x86.MemBD(8, base, int32(disp)))
		} else {
			e.b.I(x86.MOV, x86.R64(scratchGP2), x86.Imm(disp, 8))
			if base != d {
				e.b.I(x86.MOV, x86.R64(d), x86.R64(base))
			}
			e.b.I(x86.ADD, x86.R64(d), x86.R64(scratchGP2))
		}
		e.writeBackGP(in, d)
		return nil
	}
	idx, err := e.valueGP(idxV, scratchGP2)
	if err != nil {
		return err
	}
	switch elem {
	case 1, 2, 4, 8:
		e.b.I(x86.LEA, x86.R64(d), x86.MemBIS(8, base, idx, uint8(elem), 0))
	default:
		// d = idx*elem + base.
		e.b.I(x86.IMUL3, x86.R64(scratchGP2), x86.R64(idx), x86.Imm(elem, 8))
		if base != d {
			e.b.I(x86.MOV, x86.R64(d), x86.R64(base))
		}
		e.b.I(x86.ADD, x86.R64(d), x86.R64(scratchGP2))
	}
	e.writeBackGP(in, d)
	return nil
}

func (e *emitter) emitLoad(in *ir.Inst) error {
	if classOf(in.Ty) == classXMM {
		d := e.dstXMM(in)
		switch {
		case in.Ty.Kind == ir.KDouble:
			op, err := e.memOperand(in.Args[0], 8)
			if err != nil {
				return err
			}
			e.b.I(x86.MOVSD_X, x86.X(d), op)
		case in.Ty.Kind == ir.KFloat:
			op, err := e.memOperand(in.Args[0], 4)
			if err != nil {
				return err
			}
			e.b.I(x86.MOVSS_X, x86.X(d), op)
		default: // 16-byte vector or i128
			op, err := e.memOperand(in.Args[0], 16)
			if err != nil {
				return err
			}
			mov := x86.MOVUPD
			if in.Align >= 16 {
				mov = x86.MOVAPD
			}
			e.b.I(mov, x86.X(d), op)
		}
		e.writeBackXMM(in, d)
		return nil
	}
	d := e.dstGP(in)
	w := widthOf(in.Ty)
	op, err := e.memOperand(in.Args[0], w)
	if err != nil {
		return err
	}
	e.b.I(x86.MOV, x86.RegOp(d, w), op)
	e.writeBackGP(in, d)
	return nil
}

func (e *emitter) emitStore(in *ir.Inst) error {
	v, ptr := in.Args[0], in.Args[1]
	if classOf(v.Type()) == classXMM {
		// XMM values never collide with the GP scratches used by the
		// address computation, so the fused addressing mode applies.
		r, err := e.valueXMM(v, scratchXMM)
		if err != nil {
			return err
		}
		var mov x86.Op
		var size uint8
		switch {
		case v.Type().Kind == ir.KDouble:
			mov, size = x86.MOVSD_X, 8
		case v.Type().Kind == ir.KFloat:
			mov, size = x86.MOVSS_X, 4
		default:
			mov, size = x86.MOVUPD, 16
			if in.Align >= 16 {
				mov = x86.MOVAPD
			}
		}
		op, err := e.memOperand(ptr, size)
		if err != nil {
			return err
		}
		e.b.I(mov, op, x86.X(r))
		return nil
	}
	w := widthOf(v.Type())
	// In-register values and small constants can use the fused addressing
	// mode directly; anything needing value staging collapses the address
	// into one scratch register first to avoid scratch collisions.
	if c, ok := v.(*ir.ConstInt); ok {
		iv := int64(c.V)
		if w < 8 || (iv >= -(1<<31) && iv < 1<<31) {
			op, err := e.memOperand(ptr, w)
			if err != nil {
				return err
			}
			if w < 8 {
				iv = int64(int32(uint32(c.V)))
			}
			e.b.I(x86.MOV, op, x86.Imm(iv, w))
			return nil
		}
	}
	if l, ok := e.homeOf(v); ok && l.inReg {
		op, err := e.memOperand(ptr, w)
		if err != nil {
			return err
		}
		e.b.I(x86.MOV, op, x86.RegOp(l.reg, w))
		return nil
	}
	if err := e.memAddrInto(ptr, scratchGP); err != nil {
		return err
	}
	r, err := e.valueGP(v, scratchGP2)
	if err != nil {
		return err
	}
	e.b.I(x86.MOV, x86.MemBD(w, scratchGP, 0), x86.RegOp(r, w))
	return nil
}

func (e *emitter) emitSelect(in *ir.Inst) error {
	// Obtain the branch condition: fused icmp or an i1 value test.
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
	tv, fv := in.Args[1], in.Args[2]
	if classOf(in.Ty) == classGP {
		d := e.dstGP(in)
		// mov does not affect flags, so staging is safe after the cmp.
		if err := e.moveIntoGP(d, fv); err != nil {
			return err
		}
		rt, err := e.valueGP(tv, scratchGP2)
		if err != nil {
			return err
		}
		w := widthOf(in.Ty)
		if w < 4 {
			w = 4
		}
		e.b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: cond,
			Dst: x86.RegOp(d, w), Src: x86.RegOp(rt, w)})
		e.writeBackGP(in, d)
		return nil
	}
	// FP select: short branch diamond (no cmov for XMM without AVX).
	d := e.dstXMM(in)
	if err := e.moveIntoXMM(d, fv); err != nil {
		return err
	}
	skip := e.b.NewLabel()
	e.b.Jcc(cond.Negate(), skip)
	if err := e.moveIntoXMM(d, tv); err != nil {
		return err
	}
	e.b.Bind(skip)
	e.writeBackXMM(in, d)
	return nil
}

func (e *emitter) emitCall(in *ir.Inst) error {
	self := in.Callee == e.f
	target, ok := e.c.entries[in.Callee]
	if !ok && !self {
		if in.Callee.Addr != 0 && len(in.Callee.Blocks) == 0 {
			target = in.Callee.Addr
		} else {
			return fmt.Errorf("call target %s unresolved", in.Callee.Nam)
		}
	}
	var moves []pmove
	nInt, nFP := 0, 0
	for _, a := range in.Args {
		if classOf(a.Type()) == classXMM {
			dst := loc{inReg: true, reg: x86.XMM0 + x86.Reg(nFP)}
			nFP++
			m := pmove{dst: dst, cls: classXMM, srcVal: a}
			if sl, ok := e.homeOf(a); ok {
				m.srcLoc = &sl
			}
			moves = append(moves, m)
		} else {
			if nInt >= len(intArgRegs) {
				return fmt.Errorf("too many call arguments")
			}
			dst := loc{inReg: true, reg: intArgRegs[nInt]}
			nInt++
			m := pmove{dst: dst, cls: classGP, srcVal: a}
			if sl, ok := e.homeOf(a); ok {
				if _, isA := allocaInst(a); !isA {
					m.srcLoc = &sl
				}
			}
			moves = append(moves, m)
		}
	}
	if err := e.parallelMoves(moves); err != nil {
		return err
	}
	if self {
		e.b.CallLabel(e.entry)
	} else {
		e.b.Call(target)
	}
	if in.Ty != ir.Void {
		if classOf(in.Ty) == classXMM {
			e.writeBackXMM(in, x86.XMM0)
		} else {
			e.writeBackGP(in, x86.RAX)
		}
	}
	return nil
}

func (e *emitter) emitExtractElement(in *ir.Inst) error {
	idx := int64(0)
	if c, ok := in.Args[1].(*ir.ConstInt); ok {
		idx = int64(c.V)
	} else {
		return fmt.Errorf("variable extractelement index")
	}
	src, err := e.valueXMM(in.Args[0], scratchXMM)
	if err != nil {
		return err
	}
	lanes := in.Args[0].Type().Len
	elemSize := in.Args[0].Type().Elem.Size()
	if classOf(in.Ty) == classXMM {
		d := e.dstXMM(in)
		switch {
		case idx == 0:
			if src != d {
				e.b.I(x86.MOVAPS, x86.X(d), x86.X(src))
			}
		case elemSize == 8 && idx == 1:
			if src != d {
				e.b.I(x86.MOVAPS, x86.X(d), x86.X(src))
			}
			e.b.I(x86.UNPCKHPD, x86.X(d), x86.X(d))
		case elemSize == 4:
			if src != d {
				e.b.I(x86.MOVAPS, x86.X(d), x86.X(src))
			}
			sel := byte(idx) & 3
			e.b.I(x86.PSHUFD, x86.X(d), x86.X(d), x86.Imm(int64(sel), 1))
		default:
			return fmt.Errorf("unsupported extract lane %d of %d", idx, lanes)
		}
		e.writeBackXMM(in, d)
		return nil
	}
	// Vector lane to GP.
	d := e.dstGP(in)
	work := src
	if idx != 0 {
		if src != scratchXMM {
			e.b.I(x86.MOVAPS, x86.X(scratchXMM), x86.X(src))
		}
		work = scratchXMM
		if elemSize == 8 {
			e.b.I(x86.UNPCKHPD, x86.X(work), x86.X(work))
		} else {
			e.b.I(x86.PSHUFD, x86.X(work), x86.X(work), x86.Imm(idx&3, 1))
		}
	}
	if elemSize == 8 {
		e.b.I(x86.MOVQGP, x86.R64(d), x86.X(work))
	} else {
		e.b.I(x86.MOVD, x86.R32(d), x86.X(work))
	}
	e.writeBackGP(in, d)
	return nil
}

func (e *emitter) emitInsertElement(in *ir.Inst) error {
	idxC, ok := in.Args[2].(*ir.ConstInt)
	if !ok {
		return fmt.Errorf("variable insertelement index")
	}
	idx := int64(idxC.V)
	elemTy := in.Ty.Elem
	if elemTy.Size() != 8 && elemTy.Size() != 4 {
		return fmt.Errorf("insertelement of %s lanes is not supported", elemTy)
	}

	// Scalar into scratchXMM2 first (handles GP-class scalars).
	var sreg x86.Reg
	if classOf(in.Args[1].Type()) == classGP {
		r, err := e.valueGP(in.Args[1], scratchGP)
		if err != nil {
			return err
		}
		e.b.I(x86.MOVQGP, x86.X(scratchXMM2), x86.R64(r))
		sreg = scratchXMM2
	} else {
		r, err := e.valueXMM(in.Args[1], scratchXMM2)
		if err != nil {
			return err
		}
		sreg = r
	}

	d := e.dstXMM(in)
	base := in.Args[0]
	if elemTy.Size() == 4 {
		// 32-bit lane: rotate the target lane to position 0 with pshufd
		// (an involution), merge with movss, rotate back.
		if bh, ok := e.homeOf(base); ok && bh.inReg && bh.reg == sreg {
			return fmt.Errorf("insertelement aliasing not supported")
		}
		if err := e.moveIntoXMM(d, base); err != nil {
			return err
		}
		if d == sreg {
			return fmt.Errorf("insertelement scratch conflict")
		}
		swap := [4]int64{0, 0xE1, 0xC6, 0x27} // identity with lane 0<->idx swapped
		if idx != 0 {
			e.b.I(x86.PSHUFD, x86.X(d), x86.X(d), x86.Imm(swap[idx], 1))
		}
		e.b.I(x86.MOVSS_X, x86.X(d), x86.X(sreg))
		if idx != 0 {
			e.b.I(x86.PSHUFD, x86.X(d), x86.X(d), x86.Imm(swap[idx], 1))
		}
		e.writeBackXMM(in, d)
		return nil
	}
	if _, isZero := base.(*ir.Zero); isZero && idx == 0 {
		// insert into zero vector at lane 0: movq zeroes the upper lane.
		e.b.I(x86.MOVQ, x86.X(d), x86.X(sreg))
		e.writeBackXMM(in, d)
		return nil
	}
	if _, isUndef := base.(*ir.Undef); isUndef {
		if idx == 0 {
			if sreg != d {
				e.b.I(x86.MOVAPS, x86.X(d), x86.X(sreg))
			}
		} else {
			if sreg != d {
				e.b.I(x86.MOVAPS, x86.X(d), x86.X(sreg))
			}
			e.b.I(x86.UNPCKLPD, x86.X(d), x86.X(d)) // [s, s]
		}
		e.writeBackXMM(in, d)
		return nil
	}
	// General: base vector into d, then merge the lane.
	if bh, ok := e.homeOf(base); ok && bh.inReg && bh.reg == sreg {
		// aliasing: move scalar away first (it is already scratchXMM2
		// unless the value lives there, which scratch never does).
		return fmt.Errorf("insertelement aliasing not supported")
	}
	if err := e.moveIntoXMM(d, base); err != nil {
		return err
	}
	if d == sreg {
		return fmt.Errorf("insertelement scratch conflict")
	}
	if idx == 0 {
		e.b.I(x86.MOVSD_X, x86.X(d), x86.X(sreg)) // low lane, upper preserved
	} else {
		e.b.I(x86.UNPCKLPD, x86.X(d), x86.X(sreg)) // [d0, s]
	}
	e.writeBackXMM(in, d)
	return nil
}

func (e *emitter) emitShuffle(in *ir.Inst) error {
	srcTy := in.Args[0].Type()
	if srcTy.Elem.Size() == 8 && len(in.Mask) == 2 {
		return e.emitShuffle2(in)
	}
	if srcTy.Elem.Size() == 4 && len(in.Mask) == 4 {
		return e.emitShuffle4(in)
	}
	return fmt.Errorf("unsupported shuffle %v on %s", in.Mask, srcTy)
}

// emitShuffle2 handles all two-lane (double/i64) shuffles via shufpd.
func (e *emitter) emitShuffle2(in *ir.Inst) error {
	m0, m1 := in.Mask[0], in.Mask[1]
	if m0 < 0 {
		m0 = 0
	}
	if m1 < 0 {
		m1 = m0
	}
	d := e.dstXMM(in)
	pick := func(sel int) (ir.Value, int) {
		if sel < 2 {
			return in.Args[0], sel
		}
		return in.Args[1], sel - 2
	}
	av, ai := pick(m0)
	bv, bi := pick(m1)
	ra, err := e.valueXMM(av, scratchXMM)
	if err != nil {
		return err
	}
	var rb x86.Reg
	if bv == av {
		rb = ra
	} else {
		rb, err = e.valueXMM(bv, scratchXMM2)
		if err != nil {
			return err
		}
	}
	// d = [ra[ai], rb[bi]] via movaps + shufpd.
	if rb == d && ra != d {
		// shufpd reads d as first source; park rb.
		e.b.I(x86.MOVAPS, x86.X(scratchXMM2), x86.X(rb))
		rb = scratchXMM2
	}
	if ra != d {
		e.b.I(x86.MOVAPS, x86.X(d), x86.X(ra))
	}
	imm := int64(ai | bi<<1)
	e.b.I(x86.SHUFPD, x86.X(d), x86.X(rb), x86.Imm(imm, 1))
	e.writeBackXMM(in, d)
	return nil
}

// emitShuffle4 handles four-lane shuffles where the first two result lanes
// come from one vector and the last two from one vector (shufps shape), or
// the interleave shape (unpcklps).
func (e *emitter) emitShuffle4(in *ir.Inst) error {
	m := in.Mask
	d := e.dstXMM(in)
	// unpcklps: [0,4,1,5]
	if m[0] == 0 && m[1] == 4 && m[2] == 1 && m[3] == 5 {
		ra, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		rb, err := e.valueXMM(in.Args[1], scratchXMM2)
		if err != nil {
			return err
		}
		if rb == d && ra != d {
			e.b.I(x86.MOVAPS, x86.X(scratchXMM2), x86.X(rb))
			rb = scratchXMM2
		}
		if ra != d {
			e.b.I(x86.MOVAPS, x86.X(d), x86.X(ra))
		}
		e.b.I(x86.UNPCKLPS, x86.X(d), x86.X(rb))
		e.writeBackXMM(in, d)
		return nil
	}
	// All lanes from args[0]: pshufd.
	all0 := true
	for _, v := range m {
		if v >= 4 {
			all0 = false
		}
	}
	if all0 {
		ra, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		sel := int64(0)
		for i, v := range m {
			if v < 0 {
				v = 0
			}
			sel |= int64(v&3) << (2 * i)
		}
		e.b.I(x86.PSHUFD, x86.X(d), x86.X(ra), x86.Imm(sel, 1))
		e.writeBackXMM(in, d)
		return nil
	}
	// shufps shape: lanes 0,1 from a; 2,3 from b.
	if m[0] < 4 && m[1] < 4 && m[2] >= 4 && m[3] >= 4 {
		ra, err := e.valueXMM(in.Args[0], scratchXMM)
		if err != nil {
			return err
		}
		rb, err := e.valueXMM(in.Args[1], scratchXMM2)
		if err != nil {
			return err
		}
		if rb == d && ra != d {
			e.b.I(x86.MOVAPS, x86.X(scratchXMM2), x86.X(rb))
			rb = scratchXMM2
		}
		if ra != d {
			e.b.I(x86.MOVAPS, x86.X(d), x86.X(ra))
		}
		sel := int64(m[0]&3) | int64(m[1]&3)<<2 | int64(m[2]&3)<<4 | int64(m[3]&3)<<6
		e.b.I(x86.SHUFPS, x86.X(d), x86.X(rb), x86.Imm(sel, 1))
		e.writeBackXMM(in, d)
		return nil
	}
	return fmt.Errorf("unsupported 4-lane shuffle %v", m)
}
