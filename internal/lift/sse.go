package lift

import (
	"repro/internal/ir"
	"repro/internal/x86"
)

var (
	v2f64 = ir.VecOf(ir.Double, 2)
	v4f32 = ir.VecOf(ir.Float, 4)
	v2i64 = ir.VecOf(ir.I64, 2)
	v4i32 = ir.VecOf(ir.I32, 4)
)

// readSSEOperand reads an SSE source operand in the requested facet; memory
// operands load the facet's type directly.
func (l *Lifter) readSSEOperand(s *state, in *x86.Inst, op x86.Operand, f Facet) ir.Value {
	if op.Kind == x86.KReg && op.Reg.IsXMM() {
		return l.readXMMFacet(s, op.Reg, f)
	}
	return l.loadMem(s, in, op, f.Type())
}

// scalarSSE lowers a scalar double/float arithmetic instruction: the
// operation applies to the low lane, the upper part is preserved.
func (l *Lifter) scalarSSE(s *state, in *x86.Inst, f Facet, op func(a, c ir.Value) ir.Value) error {
	a := l.readXMMFacet(s, in.Dst.Reg, f)
	c := l.readSSEOperand(s, in, in.Src, f)
	res := op(a, c)
	if f == FF64 {
		l.writeXMMScalarF64(s, in.Dst.Reg, res, true)
	} else {
		l.writeXMMScalarF32(s, in.Dst.Reg, res, true)
	}
	return nil
}

// packedSSE lowers a packed arithmetic instruction over the given vector
// facet; the full register is replaced.
func (l *Lifter) packedSSE(s *state, in *x86.Inst, f Facet, op func(a, c ir.Value) ir.Value) error {
	a := l.readXMMFacet(s, in.Dst.Reg, f)
	c := l.readSSEOperand(s, in, in.Src, f)
	l.writeXMM(s, in.Dst.Reg, f, op(a, c))
	return nil
}

func (l *Lifter) translateSSE(s *state, in *x86.Inst) error {
	b := l.b
	switch in.Op {
	case x86.MOVSD_X:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			if in.Src.Kind == x86.KMem {
				v := l.loadMem(s, in, in.Src, ir.Double)
				l.writeXMMScalarF64(s, in.Dst.Reg, v, false) // load zeroes upper
			} else {
				v := l.readXMMFacet(s, in.Src.Reg, FF64)
				l.writeXMMScalarF64(s, in.Dst.Reg, v, true) // reg-reg preserves
			}
			return nil
		}
		l.storeMem(s, in, in.Dst, l.readXMMFacet(s, in.Src.Reg, FF64))
		return nil
	case x86.MOVSS_X:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			if in.Src.Kind == x86.KMem {
				v := l.loadMem(s, in, in.Src, ir.Float)
				l.writeXMMScalarF32(s, in.Dst.Reg, v, false)
			} else {
				v := l.readXMMFacet(s, in.Src.Reg, FF32)
				l.writeXMMScalarF32(s, in.Dst.Reg, v, true)
			}
			return nil
		}
		l.storeMem(s, in, in.Dst, l.readXMMFacet(s, in.Src.Reg, FF32))
		return nil

	case x86.MOVAPS, x86.MOVUPS:
		return l.sseFullMove(s, in, FV4F32, in.Op == x86.MOVAPS)
	case x86.MOVAPD, x86.MOVUPD:
		return l.sseFullMove(s, in, FV2F64, in.Op == x86.MOVAPD)
	case x86.MOVDQA, x86.MOVDQU:
		return l.sseFullMove(s, in, FV2I64, in.Op == x86.MOVDQA)

	case x86.MOVQ:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			var v ir.Value
			if in.Src.Kind == x86.KMem {
				v = l.loadMem(s, in, in.Src, ir.I64)
			} else {
				v = b.ExtractElement(l.readXMMFacet(s, in.Src.Reg, FV2I64), 0)
			}
			// movq zeroes the untouched part (Section III.C.2).
			vec := b.InsertElement(ir.ZeroOf(v2i64), v, 0)
			l.writeXMM(s, in.Dst.Reg, FV2I64, vec)
			return nil
		}
		v := b.ExtractElement(l.readXMMFacet(s, in.Src.Reg, FV2I64), 0)
		l.storeMem(s, in, in.Dst, v)
		return nil
	case x86.MOVD, x86.MOVQGP:
		ity := ir.I32
		if in.Op == x86.MOVQGP {
			ity = ir.I64
		}
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			v := l.readIntOperand(s, in, in.Src)
			var wide ir.Value = v
			if ity == ir.I32 {
				wide = b.ZExt(v, ir.I64)
			}
			vec := b.InsertElement(ir.ZeroOf(v2i64), wide, 0)
			l.writeXMM(s, in.Dst.Reg, FV2I64, vec)
			return nil
		}
		v := b.ExtractElement(l.readXMMFacet(s, in.Src.Reg, FV2I64), 0)
		if ity == ir.I32 {
			v = b.Trunc(v, ir.I32)
		}
		l.writeIntOperand(s, in, in.Dst, v, nil)
		return nil

	case x86.MOVHPD:
		if in.Dst.Kind == x86.KReg {
			v := l.loadMem(s, in, in.Src, ir.Double)
			vec := b.InsertElement(l.readXMMFacet(s, in.Dst.Reg, FV2F64), v, 1)
			l.writeXMM(s, in.Dst.Reg, FV2F64, vec)
			return nil
		}
		v := b.ExtractElement(l.readXMMFacet(s, in.Src.Reg, FV2F64), 1)
		l.storeMem(s, in, in.Dst, v)
		return nil
	case x86.MOVLPD:
		if in.Dst.Kind == x86.KReg {
			v := l.loadMem(s, in, in.Src, ir.Double)
			vec := b.InsertElement(l.readXMMFacet(s, in.Dst.Reg, FV2F64), v, 0)
			l.writeXMM(s, in.Dst.Reg, FV2F64, vec)
			return nil
		}
		v := b.ExtractElement(l.readXMMFacet(s, in.Src.Reg, FV2F64), 0)
		l.storeMem(s, in, in.Dst, v)
		return nil

	case x86.ADDSD:
		return l.scalarSSE(s, in, FF64, func(a, c ir.Value) ir.Value { return b.FAdd(a, c) })
	case x86.SUBSD:
		return l.scalarSSE(s, in, FF64, func(a, c ir.Value) ir.Value { return b.FSub(a, c) })
	case x86.MULSD:
		return l.scalarSSE(s, in, FF64, func(a, c ir.Value) ir.Value { return b.FMul(a, c) })
	case x86.DIVSD:
		return l.scalarSSE(s, in, FF64, func(a, c ir.Value) ir.Value { return b.FDiv(a, c) })
	case x86.MINSD:
		return l.scalarSSE(s, in, FF64, func(a, c ir.Value) ir.Value {
			return b.Select(b.FCmp(ir.PredOLT, a, c), a, c)
		})
	case x86.MAXSD:
		return l.scalarSSE(s, in, FF64, func(a, c ir.Value) ir.Value {
			return b.Select(b.FCmp(ir.PredOGT, a, c), a, c)
		})
	case x86.SQRTSD:
		c := l.readSSEOperand(s, in, in.Src, FF64)
		l.writeXMMScalarF64(s, in.Dst.Reg, b.Sqrt(c), true)
		return nil
	case x86.ADDSS:
		return l.scalarSSE(s, in, FF32, func(a, c ir.Value) ir.Value { return b.FAdd(a, c) })
	case x86.SUBSS:
		return l.scalarSSE(s, in, FF32, func(a, c ir.Value) ir.Value { return b.FSub(a, c) })
	case x86.MULSS:
		return l.scalarSSE(s, in, FF32, func(a, c ir.Value) ir.Value { return b.FMul(a, c) })
	case x86.DIVSS:
		return l.scalarSSE(s, in, FF32, func(a, c ir.Value) ir.Value { return b.FDiv(a, c) })

	case x86.ADDPD:
		return l.packedSSE(s, in, FV2F64, func(a, c ir.Value) ir.Value { return b.FAdd(a, c) })
	case x86.SUBPD:
		return l.packedSSE(s, in, FV2F64, func(a, c ir.Value) ir.Value { return b.FSub(a, c) })
	case x86.MULPD:
		return l.packedSSE(s, in, FV2F64, func(a, c ir.Value) ir.Value { return b.FMul(a, c) })
	case x86.DIVPD:
		return l.packedSSE(s, in, FV2F64, func(a, c ir.Value) ir.Value { return b.FDiv(a, c) })
	case x86.ADDPS:
		return l.packedSSE(s, in, FV4F32, func(a, c ir.Value) ir.Value { return b.FAdd(a, c) })
	case x86.SUBPS:
		return l.packedSSE(s, in, FV4F32, func(a, c ir.Value) ir.Value { return b.FSub(a, c) })
	case x86.MULPS:
		return l.packedSSE(s, in, FV4F32, func(a, c ir.Value) ir.Value { return b.FMul(a, c) })
	case x86.DIVPS:
		return l.packedSSE(s, in, FV4F32, func(a, c ir.Value) ir.Value { return b.FDiv(a, c) })

	case x86.XORPS, x86.XORPD, x86.PXOR:
		// Self-xor is the canonical vector zero idiom; make the constant
		// explicit so specialization can propagate it (cf. Figure 8).
		if in.Src.Kind == x86.KReg && in.Src.Reg == in.Dst.Reg {
			l.writeXMM(s, in.Dst.Reg, FI128, ir.Int(ir.I128, 0))
			return nil
		}
		return l.packedSSE(s, in, FV2I64, func(a, c ir.Value) ir.Value { return b.Xor(a, c) })
	case x86.ANDPS, x86.ANDPD, x86.PAND:
		return l.packedSSE(s, in, FV2I64, func(a, c ir.Value) ir.Value { return b.And(a, c) })
	case x86.ORPS, x86.ORPD, x86.POR:
		return l.packedSSE(s, in, FV2I64, func(a, c ir.Value) ir.Value { return b.Or(a, c) })
	case x86.PADDQ:
		return l.packedSSE(s, in, FV2I64, func(a, c ir.Value) ir.Value { return b.Add(a, c) })
	case x86.PSUBQ:
		return l.packedSSE(s, in, FV2I64, func(a, c ir.Value) ir.Value { return b.Sub(a, c) })
	case x86.PADDD:
		return l.packedSSE(s, in, FV4I32, func(a, c ir.Value) ir.Value { return b.Add(a, c) })
	case x86.PSUBD:
		return l.packedSSE(s, in, FV4I32, func(a, c ir.Value) ir.Value { return b.Sub(a, c) })

	case x86.UNPCKLPD, x86.PUNPCKLQDQ:
		a := l.readXMMFacet(s, in.Dst.Reg, FV2F64)
		c := l.readSSEOperand(s, in, in.Src, FV2F64)
		l.writeXMM(s, in.Dst.Reg, FV2F64, b.ShuffleVector(a, c, []int{0, 2}))
		return nil
	case x86.UNPCKHPD:
		a := l.readXMMFacet(s, in.Dst.Reg, FV2F64)
		c := l.readSSEOperand(s, in, in.Src, FV2F64)
		l.writeXMM(s, in.Dst.Reg, FV2F64, b.ShuffleVector(a, c, []int{1, 3}))
		return nil
	case x86.UNPCKLPS:
		a := l.readXMMFacet(s, in.Dst.Reg, FV4F32)
		c := l.readSSEOperand(s, in, in.Src, FV4F32)
		l.writeXMM(s, in.Dst.Reg, FV4F32, b.ShuffleVector(a, c, []int{0, 4, 1, 5}))
		return nil
	case x86.SHUFPD:
		a := l.readXMMFacet(s, in.Dst.Reg, FV2F64)
		c := l.readSSEOperand(s, in, in.Src, FV2F64)
		sel := uint8(in.Src2.Imm)
		l.writeXMM(s, in.Dst.Reg, FV2F64,
			b.ShuffleVector(a, c, []int{int(sel & 1), 2 + int(sel>>1&1)}))
		return nil
	case x86.SHUFPS:
		a := l.readXMMFacet(s, in.Dst.Reg, FV4F32)
		c := l.readSSEOperand(s, in, in.Src, FV4F32)
		sel := uint8(in.Src2.Imm)
		l.writeXMM(s, in.Dst.Reg, FV4F32, b.ShuffleVector(a, c,
			[]int{int(sel & 3), int(sel >> 2 & 3), 4 + int(sel>>4&3), 4 + int(sel>>6&3)}))
		return nil
	case x86.PSHUFD:
		c := l.readSSEOperand(s, in, in.Src, FV4I32)
		sel := uint8(in.Src2.Imm)
		l.writeXMM(s, in.Dst.Reg, FV4I32, b.ShuffleVector(c, ir.UndefOf(v4i32),
			[]int{int(sel & 3), int(sel >> 2 & 3), int(sel >> 4 & 3), int(sel >> 6 & 3)}))
		return nil

	case x86.CVTSI2SD:
		v := l.readIntOperand(s, in, in.Src)
		l.writeXMMScalarF64(s, in.Dst.Reg, b.SIToFP(v, ir.Double), true)
		return nil
	case x86.CVTSI2SS:
		v := l.readIntOperand(s, in, in.Src)
		l.writeXMMScalarF32(s, in.Dst.Reg, b.SIToFP(v, ir.Float), true)
		return nil
	case x86.CVTTSD2SI:
		v := l.readSSEOperand(s, in, in.Src, FF64)
		res := b.FPToSI(v, ir.IntType(int(in.Dst.Size)*8))
		l.writeGPR(s, in.Dst.Reg, in.Dst.Size, res, nil)
		return nil
	case x86.CVTSD2SS:
		v := l.readSSEOperand(s, in, in.Src, FF64)
		l.writeXMMScalarF32(s, in.Dst.Reg, b.FPTrunc(v, ir.Float), true)
		return nil
	case x86.CVTSS2SD:
		v := l.readSSEOperand(s, in, in.Src, FF32)
		l.writeXMMScalarF64(s, in.Dst.Reg, b.FPExt(v, ir.Double), true)
		return nil

	case x86.COMISD, x86.UCOMISD:
		a := l.readXMMFacet(s, in.Dst.Reg, FF64)
		c := l.readSSEOperand(s, in, in.Src, FF64)
		l.setComiFlags(s, a, c)
		return nil
	case x86.COMISS, x86.UCOMISS:
		a := l.readXMMFacet(s, in.Dst.Reg, FF32)
		c := l.readSSEOperand(s, in, in.Src, FF32)
		l.setComiFlags(s, a, c)
		return nil
	case x86.MOVMSKPD:
		vec := l.readXMMFacet(s, in.Src.Reg, FV2I64)
		e0 := b.LShr(b.ExtractElement(vec, 0), ir.Int(ir.I64, 63))
		e1 := b.Shl(b.LShr(b.ExtractElement(vec, 1), ir.Int(ir.I64, 63)), ir.Int(ir.I64, 1))
		res := b.Or(e0, e1)
		if in.Dst.Size != 8 {
			res = b.Trunc(res, ir.IntType(int(in.Dst.Size)*8))
		}
		l.writeGPR(s, in.Dst.Reg, in.Dst.Size, res, nil)
		return nil
	}
	return facetErr(in, "instruction is not supported by the lifter")
}

// sseFullMove lowers full 16-byte register/memory moves. Aligned forms
// attach the 16-byte alignment guarantee their semantics imply.
func (l *Lifter) sseFullMove(s *state, in *x86.Inst, f Facet, aligned bool) error {
	if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
		if in.Src.Kind == x86.KMem {
			v := l.loadMem(s, in, in.Src, f.Type())
			if aligned {
				if ld, ok := v.(*ir.Inst); ok {
					ld.Align = 16
				}
			}
			l.writeXMM(s, in.Dst.Reg, f, v)
			return nil
		}
		l.writeXMM(s, in.Dst.Reg, f, l.readXMMFacet(s, in.Src.Reg, f))
		return nil
	}
	v := l.readXMMFacet(s, in.Src.Reg, f)
	ptr := l.memAddr(s, in, in.Dst)
	typed := l.b.Bitcast(ptr, ir.PtrInSpace(v.Type(), ptr.Type().AddrSpace))
	st := l.b.Store(v, typed)
	if aligned {
		st.Align = 16
	}
	return nil
}
